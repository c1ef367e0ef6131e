package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"testing"
)

// logBuffer collects the daemon's JSON log lines; handlers write from
// many goroutines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines decodes every log line written so far.
func (b *logBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, b.buf.String())
		}
		out = append(out, m)
	}
	return out
}

// logHeldSession runs a daemon with a debug-level JSON logger and one
// session per tenant: it holds a session of tenant hog open, has a
// second hog session rejected with 429, then finishes the held one
// racy. It returns the log lines and the held session's verdict.
func logHeldSession(t *testing.T) (*logBuffer, *Verdict) {
	t.Helper()
	logs := &logBuffer{}
	logger := slog.New(slog.NewJSONHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, srv := newTestDaemon(t, Config{Workers: 2, TenantSessions: 1, Logger: logger})

	pr, pw := io.Pipe()
	done := postAsync(srv.Client(), srv.URL, "hog", pr)
	waitSessions(t, srv.Client(), srv.URL, 1)
	if code, _ := submit(t, srv.Client(), srv.URL, "hog", bytes.NewReader(genTrace(t, safeCfg(1), "json")), ""); code != http.StatusTooManyRequests {
		t.Fatalf("second hog session got %d, want 429", code)
	}
	if _, err := pw.Write(genTrace(t, racyCfg(2), "json")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	v := <-done
	if v == nil || v.Race == nil || v.Session == "" {
		t.Fatalf("held session verdict = %+v, want a race", v)
	}
	return logs, v
}

// TestLogLinesCarrySessionIdentity pins the daemon's in-session log
// anchors: every line logged inside a session — admission, the replay
// loop's race, the verdict — carries that session's id and tenant.
func TestLogLinesCarrySessionIdentity(t *testing.T) {
	logs, v := logHeldSession(t)
	seen := map[string]bool{}
	for _, ln := range logs.lines(t) {
		msg, _ := ln["msg"].(string)
		seen[msg] = true
		if msg == "admission rejected" {
			continue
		}
		if ln["session"] != v.Session || ln["tenant"] != "hog" {
			t.Errorf("%q line = %v, want session %s of tenant hog", msg, ln, v.Session)
		}
		if msg == "race detected" && ln["level"] != "DEBUG" {
			t.Errorf("race detected logged at %v, want DEBUG", ln["level"])
		}
	}
	for _, msg := range []string{"session admitted", "race detected", "session finished"} {
		if !seen[msg] {
			t.Errorf("no %q line in the log:\n%s", msg, logs.buf.String())
		}
	}
}

// TestAdmissionRejectLogsTenantOnly: a rejected session never gets an
// id, so its line names the tenant, status and reason and no session.
func TestAdmissionRejectLogsTenantOnly(t *testing.T) {
	logs, _ := logHeldSession(t)
	rejects := 0
	for _, ln := range logs.lines(t) {
		if ln["msg"] != "admission rejected" {
			continue
		}
		rejects++
		if ln["tenant"] != "hog" || ln["status"] != float64(http.StatusTooManyRequests) || ln["reason"] == nil {
			t.Errorf("admission reject line = %v, want tenant hog, status 429 and a reason", ln)
		}
		if _, ok := ln["session"]; ok {
			t.Errorf("admission reject line names a session: %v", ln)
		}
	}
	if rejects != 1 {
		t.Errorf("%d admission rejected lines, want 1:\n%s", rejects, logs.buf.String())
	}
}

// TestUnconfiguredDaemonLogsNothing: a daemon built without a logger
// reports every level disabled, so each log call site costs one branch.
func TestUnconfiguredDaemonLogsNothing(t *testing.T) {
	if NewDaemon(Config{}).log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("a daemon without a logger has ERROR enabled")
	}
}
