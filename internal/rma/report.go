package rma

import (
	"runtime"
	"sort"

	"rmarace/internal/access"
	"rmarace/internal/depot"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
)

// Report assembles the structured run report of the session: the
// per-window analysis footprint, the full metrics snapshot when the
// session recorded into a *obs.Registry, and every detected race with
// its provenance. source labels what produced the report ("run",
// "replay", "bench"). Call it after the world has finished; it only
// reads analyzer state, so before or after Close both work.
func (s *Session) Report(source string) *obs.RunReport {
	rep := &obs.RunReport{
		Schema: obs.ReportSchema,
		Source: source,
		Method: s.cfg.Method.String(),
		Ranks:  s.world.Size(),
	}
	for _, ws := range s.Stats() {
		rep.Events += int64(ws.Accesses)
		rep.MaxNodes += int64(ws.TotalMaxNodes)
		rep.Windows = append(rep.Windows, obs.WindowReport{
			Name:             ws.Name,
			PerRankMaxNodes:  ws.PerRankMaxNodes,
			TotalMaxNodes:    ws.TotalMaxNodes,
			Accesses:         ws.Accesses,
			PerRankReceived:  ws.PerRankReceived,
			PerRankOverflows: ws.PerRankOverflows,
		})
	}
	// Stats iterates the window map; fix the order for stable output.
	sort.Slice(rep.Windows, func(i, j int) bool { return rep.Windows[i].Name < rep.Windows[j].Name })

	s.mu.Lock()
	for _, g := range s.wins {
		for r := 0; r < g.ranks; r++ {
			rep.Epochs += int64(g.eng.Epoch(r))
		}
	}
	s.mu.Unlock()

	if reg, ok := s.rec.(*obs.Registry); ok {
		s.recordAdaptiveStats(reg)
		rep.EpochLatency = obs.EpochLatencyFromRegistry(reg)
		rep.Metrics = reg.Snapshot()
	}
	if r := s.Race(); r != nil {
		rep.Races = append(rep.Races, RaceReport(r))
	}
	return rep
}

// ClockStats returns the MUST-RMA happens-before representation
// counters for the session (promotions, per-representation snapshot
// counts, adaptive vs always-vector clock bytes). Zero for the other
// methods, which carry no clocks.
func (s *Session) ClockStats() detector.ClockStats {
	if s.must == nil {
		return detector.ClockStats{}
	}
	return s.must.ClockStats()
}

// recordAdaptiveStats publishes the clock-representation counters and
// the process-wide stack depot occupancy as gauges, so report
// snapshots and the telemetry endpoint expose them. Gauges are set
// idempotently: calling Report twice does not double-count.
func (s *Session) recordAdaptiveStats(rec obs.Recorder) {
	RecordClockStats(rec, s.must)
	if s.cfg.CaptureStacks {
		ds := depot.GlobalStats()
		rec.Set(obs.DepotEntries, 0, int64(ds.Entries))
		rec.Set(obs.DepotBytes, 0, ds.Bytes)
		rec.Set(obs.DepotHits, 0, int64(ds.Hits))
		rec.Set(obs.DepotMisses, 0, int64(ds.Misses))
	}
	// Live-heap high-water sample, the same peak_rss_bytes proxy the
	// streaming replay records; SetMax keeps repeated Report calls
	// monotone.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.SetMax(obs.PeakRSS, 0, int64(ms.HeapAlloc))
}

// RecordClockStats publishes the MUST-RMA clock-representation
// counters of shared as gauges on rec, so live-session reports, replay
// reports, daemon session reports and `rmarace stats` expose them. A
// nil shared state or a disabled recorder (a nil *obs.Registry
// included) is a no-op.
func RecordClockStats(rec obs.Recorder, shared *detector.MustShared) {
	if shared == nil || !rec.Enabled() {
		return
	}
	cs := shared.ClockStats()
	rec.Set(obs.ClockPromotions, 0, int64(cs.Promotions))
	rec.Set(obs.ClockDemotions, 0, int64(cs.Demotions))
	rec.Set(obs.ClockEpochSnapshots, 0, int64(cs.EpochSnaps))
	rec.Set(obs.ClockSharedSnapshots, 0, int64(cs.SharedSnaps))
	rec.Set(obs.ClockVectorSnapshots, 0, int64(cs.VectorSnaps))
	rec.Set(obs.ClockBytes, 0, int64(cs.BytesAdaptive))
	rec.Set(obs.ClockBytesVector, 0, int64(cs.BytesVector))
	rec.Set(obs.ClockEpochsHeld, 0, int64(cs.EpochsHeld))
	rec.Set(obs.ClockFullLive, 0, int64(cs.FullClocksLive))
}

// RaceReport converts a detected race into its report form: the
// paper-exact Fig. 9 message plus the structured provenance.
func RaceReport(r *detector.Race) obs.RaceReport {
	rr := obs.RaceReport{
		Message: r.Message(),
		Shard:   -1,
		Prev:    accessReport(r.Prev),
		Cur:     accessReport(r.Cur),
	}
	if p := r.Prov; p != nil {
		rr.Window, rr.Owner, rr.Shard = p.Window, p.Owner, p.Shard
	}
	rr.Flight = FlightReport(r.FlightLog)
	return rr
}

// FlightReport converts a flight-recorder snapshot to its report form.
func FlightReport(entries []detector.FlightEntry) []obs.FlightEntryReport {
	if len(entries) == 0 {
		return nil
	}
	out := make([]obs.FlightEntryReport, len(entries))
	for i, e := range entries {
		fe := obs.FlightEntryReport{Seq: e.Seq, Kind: e.Kind.String()}
		if e.Kind == detector.FlightAccess {
			acc := accessReport(e.Acc)
			fe.Acc = &acc
		} else {
			fe.Origin = e.Origin
		}
		out[i] = fe
	}
	return out
}

func accessReport(a access.Access) obs.AccessReport {
	return obs.AccessReport{
		Rank:     a.Rank,
		Epoch:    a.Epoch,
		Type:     a.Type.String(),
		Lo:       a.Lo,
		Hi:       a.Hi,
		Location: a.Debug.String(),
		Stack:    a.FrameString(),
	}
}
