package conformance

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"rmarace/internal/detector"
	"rmarace/internal/fuzz"
	"rmarace/internal/micro"
	"rmarace/internal/serve"
	"rmarace/internal/trace"
)

// Schema versions the CONFORMANCE.json document.
const Schema = "rmarace/conformance/v1"

// Config is one detector configuration under evaluation.
type Config struct {
	Name   string
	Method detector.Method
	Store  string
	Shards int
	Batch  int
	// Gated configurations are held to P = R = 1.0 with matching pairs
	// by the conformance test; ungated ones are comparison rows (the
	// published tool and MUST-RMA), pinned only against regression by
	// the CI diff gate.
	Gated bool
}

// Configs returns the evaluated configurations: the contribution
// across every store backend, sharded and unsharded, batched and
// per-event — all gated — plus the two reference tools.
func Configs() []Config {
	var out []Config
	for _, st := range []string{"avl", "strided", "shadow"} {
		for _, sh := range []int{1, 4} {
			for _, b := range []int{1, 64} {
				out = append(out, Config{
					Name:   fmt.Sprintf("our/%s/s%d/b%d", st, sh, b),
					Method: detector.OurContribution,
					Store:  st, Shards: sh, Batch: b, Gated: true,
				})
			}
		}
	}
	return append(out,
		Config{Name: "rma-analyzer", Method: detector.RMAAnalyzer, Store: "legacy", Shards: 1, Batch: 1},
		Config{Name: "must-rma", Method: detector.MustRMAMethod, Store: "", Shards: 1, Batch: 1},
	)
}

// Replay runs one case under one configuration and returns the
// verdict. Schedule seed 0 (program order) keeps the evaluation
// deterministic; the oracle cross-check test covers other schedules.
func Replay(c Case, cfg Config) (*detector.Race, error) {
	p := c.Program
	streams := p.Ranks * p.Windows
	factory, _, err := serve.NewAnalyzerFactory(cfg.Method, streams, cfg.Store, cfg.Shards, nil)
	if err != nil {
		return nil, err
	}
	src := trace.NewRecordSource(trace.Header{Ranks: streams, Window: "conformance"}, fuzz.Render(p, 0))
	res, err := trace.ReplayStream(src, factory, trace.ReplayOpts{Batch: cfg.Batch})
	if err != nil {
		return nil, err
	}
	return res.Race, nil
}

// PairOK reports whether a race verdict names one of the case's
// labeled call-site pairs.
func PairOK(c Case, r *detector.Race) bool {
	if r == nil {
		return false
	}
	k := detector.DedupKey(r)
	return c.HasPair(k.A.Line, k.B.Line)
}

// Score extends the confusion matrix with the pair-identity failure
// mode a plain detected/undetected split cannot see: a verdict that
// flags a racy case but blames the wrong call-site pair counts as a
// miss (FN) and increments WrongPair.
type Score struct {
	micro.Confusion
	WrongPair int
}

func (s *Score) observe(c Case, race *detector.Race) {
	detected := race != nil
	switch {
	case c.Racy && detected && PairOK(c, race):
		s.TP++
	case c.Racy && detected:
		s.FN++
		s.WrongPair++
	case c.Racy:
		s.FN++
	case detected:
		s.FP++
	default:
		s.TN++
	}
}

// Outcome is one configuration's evaluation over the corpus.
type Outcome struct {
	Config     Config
	Total      Score
	ByCategory map[string]*Score
	// Mismatches lists every case the configuration got wrong, with the
	// failure mode, for humans debugging a gate failure.
	Mismatches []string
}

// Run evaluates every configuration over the corpus.
func Run(cases []Case, cfgs []Config) ([]Outcome, error) {
	outs := make([]Outcome, 0, len(cfgs))
	for _, cfg := range cfgs {
		out := Outcome{Config: cfg, ByCategory: map[string]*Score{}}
		for _, c := range cases {
			race, err := Replay(c, cfg)
			if err != nil {
				return nil, fmt.Errorf("conformance: %s under %s: %w", c.Name, cfg.Name, err)
			}
			cat := out.ByCategory[c.Category]
			if cat == nil {
				cat = &Score{}
				out.ByCategory[c.Category] = cat
			}
			out.Total.observe(c, race)
			cat.observe(c, race)
			switch {
			case c.Racy && race == nil:
				out.Mismatches = append(out.Mismatches, fmt.Sprintf("%s: FN (missed race)", c.Name))
			case c.Racy && !PairOK(c, race):
				k := detector.DedupKey(race)
				out.Mismatches = append(out.Mismatches,
					fmt.Sprintf("%s: wrong pair (reported lines %d/%d, labeled %v)", c.Name, k.A.Line, k.B.Line, c.Pairs))
			case !c.Racy && race != nil:
				out.Mismatches = append(out.Mismatches, fmt.Sprintf("%s: FP (%s)", c.Name, race.Message()))
			}
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// Metrics is the serialised form of a Score: counts plus derived
// ratios, rounded so the JSON diffs cleanly.
type Metrics struct {
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	TN        int     `json:"tn"`
	WrongPair int     `json:"wrong_pair,omitempty"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

func (s *Score) metrics() Metrics {
	return Metrics{
		TP: s.TP, FP: s.FP, FN: s.FN, TN: s.TN, WrongPair: s.WrongPair,
		Precision: round4(s.Precision()),
		Recall:    round4(s.Recall()),
		F1:        round4(s.F1()),
	}
}

// ConfigReport is one configuration's scores in the baseline document.
type ConfigReport struct {
	Name       string             `json:"name"`
	Gated      bool               `json:"gated"`
	Total      Metrics            `json:"total"`
	Categories map[string]Metrics `json:"categories"`
}

// Report is the committed CONFORMANCE.json document.
type Report struct {
	Schema     string         `json:"schema"`
	Cases      int            `json:"cases"`
	Racy       int            `json:"racy"`
	Categories []string       `json:"categories"`
	Configs    []ConfigReport `json:"configs"`
}

// BuildReport assembles the baseline document from a run.
func BuildReport(cases []Case, outs []Outcome) *Report {
	racy := 0
	for _, c := range cases {
		if c.Racy {
			racy++
		}
	}
	rep := &Report{Schema: Schema, Cases: len(cases), Racy: racy, Categories: Categories()}
	for _, out := range outs {
		cr := ConfigReport{
			Name: out.Config.Name, Gated: out.Config.Gated,
			Total:      out.Total.metrics(),
			Categories: map[string]Metrics{},
		}
		for cat, sc := range out.ByCategory {
			cr.Categories[cat] = sc.metrics()
		}
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

// WriteJSON serialises the report with stable formatting.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads a committed baseline.
func LoadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("conformance: %s: schema %q, want %q", path, rep.Schema, Schema)
	}
	return &rep, nil
}

// Gate compares a fresh run against the committed baseline and
// returns one message per regression: a configuration or category
// that disappeared, or any per-category (or total) F1 that dropped.
// Improvements pass; refresh the baseline to lock them in.
func Gate(baseline, current *Report) []string {
	var regressions []string
	byName := map[string]*ConfigReport{}
	for i := range current.Configs {
		byName[current.Configs[i].Name] = &current.Configs[i]
	}
	for _, base := range baseline.Configs {
		cur, ok := byName[base.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("config %s missing from current run", base.Name))
			continue
		}
		if cur.Total.F1 < base.Total.F1 {
			regressions = append(regressions,
				fmt.Sprintf("%s total: F1 %.4f -> %.4f", base.Name, base.Total.F1, cur.Total.F1))
		}
		cats := make([]string, 0, len(base.Categories))
		for cat := range base.Categories {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			bm := base.Categories[cat]
			cm, ok := cur.Categories[cat]
			if !ok {
				regressions = append(regressions, fmt.Sprintf("%s %s: category missing from current run", base.Name, cat))
				continue
			}
			if cm.F1 < bm.F1 {
				regressions = append(regressions,
					fmt.Sprintf("%s %s: F1 %.4f -> %.4f", base.Name, cat, bm.F1, cm.F1))
			}
		}
	}
	return regressions
}

// WriteTable prints the per-configuration, per-category score table.
func WriteTable(w io.Writer, r *Report) {
	fmt.Fprintf(w, "conformance corpus: %d cases (%d racy, %d safe), %d categories\n",
		r.Cases, r.Racy, r.Cases-r.Racy, len(r.Categories))
	fmt.Fprintf(w, "%-22s %-11s %5s %3s %3s %3s %3s %6s %7s %7s %7s\n",
		"config", "category", "gated", "tp", "fp", "fn", "tn", "wrong", "prec", "recall", "f1")
	for _, cfg := range r.Configs {
		gated := "-"
		if cfg.Gated {
			gated = "yes"
		}
		row := func(cat string, m Metrics) {
			fmt.Fprintf(w, "%-22s %-11s %5s %3d %3d %3d %3d %6d %7.4f %7.4f %7.4f\n",
				cfg.Name, cat, gated, m.TP, m.FP, m.FN, m.TN, m.WrongPair, m.Precision, m.Recall, m.F1)
		}
		row("TOTAL", cfg.Total)
		for _, cat := range r.Categories {
			if m, ok := cfg.Categories[cat]; ok {
				row(cat, m)
			}
		}
	}
}
