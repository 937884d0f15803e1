package main

import (
	"repro/internal/task"
	"repro/internal/workload"
)

// genStats counts one generation pass for the workload and rta layers.
type genStats struct {
	candidates, filterCalls, filterPass int
	// filtered keeps the first sets that reached the filter, for the
	// allocation pass.
	filtered []*task.Set
}

// generateSets draws want R-pattern-schedulable sets from iv, as
// workload.Generator.GenerateInterval does. Untraced it is that call;
// traced it is the same draw split into generation and filter spans
// (see fig6Trace for why the twin generator draws the same sets).
func generateSets(rec *recorder, parent int, wl workload.Config, seed uint64, iv workload.Interval, want, maxCand int, st *genStats) []*task.Set {
	if rec == nil {
		r := workload.NewGenerator(wl, seed).GenerateInterval(iv, want, maxCand)
		st.candidates += r.Candidates
		return r.Sets
	}
	twin := wl
	twin.SchedCap = 1
	gen := workload.NewGenerator(twin, seed)
	filter := workload.NewGenerator(wl, seed)
	var sets []*task.Set
	for n := 0; n < maxCand && len(sets) < want; n++ {
		st.candidates++
		var r workload.IntervalResult
		rec.do("workload.generate", parent, func() { r = gen.GenerateInterval(iv, 1, 1) })
		if len(r.Sets) == 0 {
			continue
		}
		var ok bool
		rec.do("rta.filter", parent, func() { ok = filter.Schedulable(r.Sets[0]) })
		st.filterCalls++
		if len(st.filtered) < 2000 {
			st.filtered = append(st.filtered, r.Sets[0])
		}
		if ok {
			st.filterPass++
			sets = append(sets, r.Sets[0])
		}
	}
	return sets
}

// genLayers fills the workload.* and rta.filter* metrics from one or
// more generation passes, per unit of work.
func genLayers(L map[string]float64, lt layerTimes, st genStats, units float64) {
	L["workload.candidates"] = float64(st.candidates) / units
	L["workload.generate_s"] = lt.total["workload.generate"].Seconds() / units
	L["workload.accept_ratio"] = ratio(st.filterPass, st.candidates)
	L["rta.filter_calls"] = float64(st.filterCalls) / units
	L["rta.filter_s"] = lt.total["rta.filter"].Seconds() / units
	L["rta.filter_pass_ratio"] = ratio(st.filterPass, st.filterCalls)
	filter := workload.NewGenerator(workload.DefaultConfig(), 0)
	L["rta.filter_allocs_per_call"], L["rta.filter_bytes_per_call"] = allocsPer(len(st.filtered), func(i int) {
		filter.Schedulable(st.filtered[i])
	})
}
