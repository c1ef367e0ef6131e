package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"rmarace/internal/detector"
	"rmarace/internal/trace"
)

// malformedTraces are well-formed JSON carrying records no replay can
// analyse: each used to panic the replay loop under the given methods.
var malformedTraces = []struct {
	name    string
	methods []string // API spellings
	body    string
}{
	{"inverted-complete", []string{"baseline", "rma-analyzer", "must-rma", "our-contribution"}, `{"kind":"header","ranks":2,"window":"w"}
{"kind":"complete","owner":0,"rank":1,"lo":10,"hi":5}
`},
	{"negative-rank", []string{"must-rma"}, `{"kind":"header","ranks":2,"window":"w"}
{"kind":"access","owner":0,"rank":-1,"lo":0,"hi":7,"type":"rma_write"}
`},
	{"rank-beyond-header", []string{"must-rma"}, `{"kind":"header","ranks":2,"window":"w"}
{"kind":"access","owner":0,"rank":2,"lo":0,"hi":7,"type":"rma_write"}
`},
	{"zero-rank-header", []string{"must-rma"}, `{"kind":"header","ranks":0,"window":"w"}
{"kind":"access","owner":0,"rank":0,"lo":0,"hi":7,"type":"rma_write"}
`},
	{"negative-owner", []string{"our-contribution"}, `{"kind":"header","ranks":2,"window":"w"}
{"kind":"access","owner":-1,"rank":0,"lo":0,"hi":7,"type":"rma_write"}
`},
	{"owner-at-cap", []string{"our-contribution"}, `{"kind":"header","ranks":2,"window":"w"}
{"kind":"epoch_end","owner":` + strconv.Itoa(trace.MaxOwners) + `}
`},
	{"rank-at-cap-without-header-ranks", []string{"our-contribution"}, `{"kind":"header","ranks":0,"window":"w"}
{"kind":"access","owner":0,"rank":` + strconv.Itoa(trace.MaxRanks) + `,"lo":0,"hi":7,"type":"rma_write"}
`},
}

// TestMalformedRecordsFailReplay: each malformed trace is refused with
// an error, by the analyzer factory or by ReplayStream naming the
// record, instead of panicking.
func TestMalformedRecordsFailReplay(t *testing.T) {
	for _, tc := range malformedTraces {
		for _, m := range tc.methods {
			method, err := detector.MethodByName(m)
			if err != nil {
				t.Fatal(err)
			}
			src, err := trace.NewReader(strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			factory, _, err := NewAnalyzerFactory(method, src.Head().Ranks, "", 1, nil)
			if err == nil {
				_, err = trace.ReplayStream(src, factory, trace.ReplayOpts{})
				if err != nil && !strings.Contains(err.Error(), "line 2") {
					t.Errorf("%s/%s: error %q does not name the record", tc.name, m, err)
				}
			}
			if err == nil {
				t.Errorf("%s/%s: replay accepted the trace", tc.name, m)
			}
		}
	}
}

// TestMalformedRecordsFailSession: the daemon answers each malformed
// trace with 400 and a failed session, leaves no session running, and
// goes on serving offline verdicts.
func TestMalformedRecordsFailSession(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	for _, tc := range malformedTraces {
		for _, m := range tc.methods {
			code, v := submit(t, srv.Client(), srv.URL, "bad", strings.NewReader(tc.body), "?method="+m)
			if code != http.StatusBadRequest || v == nil || v.State != "failed" {
				t.Errorf("%s/%s: status %d, verdict %+v; want 400 and a failed session", tc.name, m, code, v)
			}
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []Verdict
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range list {
		if v.State == "running" {
			t.Errorf("session %s still listed as running", v.Session)
		}
	}

	data := genTrace(t, racyCfg(5), "json")
	want := offline(t, data)
	if want.Race == nil {
		t.Fatal("planted race not detected offline")
	}
	code, v := submit(t, srv.Client(), srv.URL, "ok", bytes.NewReader(data), "")
	if code != http.StatusOK || v == nil || v.Race == nil || v.Race.Message != want.Race.Message() {
		t.Fatalf("later session: status %d, verdict %+v; want offline race %q", code, v, want.Race.Message())
	}
}
