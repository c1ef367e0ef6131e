package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promKind maps a report kind string to the Prometheus metric type.
// High-water marks render as gauges (Prometheus has no native max
// type); histograms are real Prometheus histograms.
func promKind(kind string) string {
	switch kind {
	case KindCounter.String():
		return "counter"
	case KindHistogram.String():
		return "histogram"
	}
	return "gauge"
}

// labelEscaper escapes a label VALUE per the Prometheus text
// exposition spec (version 0.0.4): backslash, double-quote and
// line-feed must be backslash-escaped inside the quoted value. Label
// values can be arbitrary request-supplied strings — a tenant name
// arrives straight off the X-Tenant header — so an unescaped `"` or
// newline would corrupt every scrape of the series.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper escapes HELP text: backslash and line-feed only (quotes
// are legal there).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promLabel renders a series point's label value: the resolved name
// (escaped) when the snapshot carries one, the numeric label
// otherwise.
func promLabel(pt SeriesPoint) string {
	if pt.LabelName != "" {
		return labelEscaper.Replace(pt.LabelName)
	}
	return strconv.Itoa(pt.Label)
}

// bucketLe returns the inclusive Prometheus upper bound of the
// power-of-two bucket whose lower bound is low: bucket 0 (low 0) holds
// v <= 0, bucket i holds [2^(i-1), 2^i), so le = 2^i - 1 = 2*low - 1.
func bucketLe(low int64) int64 {
	if low <= 0 {
		return 0
	}
	return 2*low - 1
}

// WriteProm renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). It is the single renderer behind
// both the live telemetry server's /metrics endpoint and
// `rmarace stats -format prom`, so a saved report scrapes identically
// to a live run. Every metric is prefixed rmarace_ and labelled with
// its dimension (rank/target/tenant).
func WriteProm(w io.Writer, snaps []MetricSnapshot) error {
	for _, ms := range snaps {
		name := "rmarace_" + ms.Name
		dim := ms.LabelDim
		if dim == "" {
			dim = "label"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s rmarace metric %s (per %s)\n# TYPE %s %s\n",
			name, helpEscaper.Replace(ms.Name), helpEscaper.Replace(dim), name, promKind(ms.Kind)); err != nil {
			return err
		}
		for _, pt := range ms.Series {
			if ms.Kind == KindHistogram.String() {
				if err := writePromHist(w, name, dim, pt); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, dim, promLabel(pt), pt.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist renders one label's histogram: cumulative _bucket
// series (the report holds per-bucket counts in ascending bucket
// order), then _sum and _count. The per-label max, which Prometheus
// histograms cannot express, rides along as a companion gauge.
func writePromHist(w io.Writer, name, dim string, pt SeriesPoint) error {
	label := promLabel(pt)
	var cum int64
	for _, b := range pt.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"%d\"} %d\n",
			name, dim, label, bucketLe(b.Low), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"+Inf\"} %d\n", name, dim, label, pt.Value); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s=\"%s\"} %d\n%s_count{%s=\"%s\"} %d\n",
		name, dim, label, pt.Sum, name, dim, label, pt.Value); err != nil {
		return err
	}
	if pt.Max != 0 {
		if _, err := fmt.Fprintf(w, "%s_max{%s=\"%s\"} %d\n", name, dim, label, pt.Max); err != nil {
			return err
		}
	}
	return nil
}
