package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// residentBytes returns the current resident set size (VmRSS).
func residentBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading RSS: %w", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", raw)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm %q: %w", raw, err)
	}
	return pages * int64(os.Getpagesize()), nil
}
