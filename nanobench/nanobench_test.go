package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	nanotarget "nanotarget"
	"nanotarget/internal/core"
	"nanotarget/internal/serving"
	"nanotarget/internal/stats"
	"nanotarget/internal/worldcfg"
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		// Two shard RPCs of one gather run in parallel: their union
		// [10, 60) is subtracted once, not 30 + 40.
		{"overlapping parallel children", []span{{Start: 10, End: 40}, {Start: 20, End: 60}}, 50},
		{"nested overlap", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"overlap plus disjoint", []span{{Start: 20, End: 60}, {Start: 10, End: 40}, {Start: 70, End: 80}}, 40},
		{"child past the parent's end is clipped", []span{{Start: 90, End: 120}}, 90},
		{"touching children", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFloodLayersFromSyntheticTree(t *testing.T) {
	// One proxied API request: client -> adsapi -> two backend calls; the
	// second fans out to two overlapping shard RPCs, each served by a shard.
	spans := []span{
		{Req: 1, ID: 1, Name: spanClient, Start: 0, End: 10_000},
		{Req: 1, ID: 2, Parent: 1, Name: spanServe, Start: 1_000, End: 9_000},
		{Req: 1, ID: 3, Parent: 2, Name: spanBackend, Start: 2_000, End: 4_000},
		{Req: 1, ID: 4, Parent: 2, Name: spanBackend, Start: 5_000, End: 8_000},
		{Req: 1, ID: 5, Parent: 4, Name: spanShardRPC, Start: 5_100, End: 7_000},
		{Req: 1, ID: 6, Parent: 4, Name: spanShardRPC, Start: 5_200, End: 7_900},
		{Req: 1, ID: 7, Parent: 5, Name: spanShardServe, Start: 5_500, End: 6_500},
		{Req: 1, ID: 8, Parent: 6, Name: spanShardServe, Start: 5_600, End: 6_600},
	}
	got := floodLayers(spans)
	want := map[string]float64{
		"adsapi.serve_us.p50":           8,
		"adsapi.self_us.p50":            3, // 8 µs minus the two backend calls (2 + 3)
		"http.wait_us.p50":              2,
		"serving.backend_calls_per_req": 2,
		"serving.shard_rpcs_per_req":    2,
		"serving.fanout_skew_us.p99":    0.8, // 2.7 µs − 1.9 µs
		"serving.shard_self_us.p50":     1,
		"serving.shard_wire_us.p50":     1.3, // median of 0.9 and 1.7
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !namePattern.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, namePattern)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
		if kind != "workload" && !unitPattern.MatchString(unit) {
			t.Errorf("%s %q has unit %q not matching %s", kind, name, unit, unitPattern)
		}
	}
	for _, w := range workloadNames {
		check("workload", w, "")
	}
	for _, m := range endToEndMetrics {
		check("end-to-end metric", m.Name, m.Unit)
	}
	for _, m := range perLayerMetrics {
		check("per-layer metric", m.Name, m.Unit)
	}
}

func TestEveryPerLayerMetricMapsToEndToEndAndWorkload(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEndMetrics {
		e2e[m.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range workloadNames {
		wls[w] = true
	}
	for _, m := range perLayerMetrics {
		if len(m.Moves) == 0 || len(m.Workloads) == 0 {
			t.Errorf("%s: needs an end-to-end metric and a workload", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range m.Workloads {
			if !wls[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// catalogue in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q with a why of at most 200 chars", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range bj.EndToEnd {
		c := endToEndMetrics[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		c := perLayerMetrics[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %s %s %s", i, m, c.Name, c.Unit, c.Better)
		}
	}
}

func TestTraceRefRoundTrip(t *testing.T) {
	ref := traceRef{Req: 42, Span: 7}
	got, ok := parseRef(ref.header())
	if !ok || got != ref {
		t.Fatalf("parseRef(%q) = %+v, %v", ref.header(), got, ok)
	}
	for _, bad := range []string{"", "42", "x-1", "1-y"} {
		if _, ok := parseRef(bad); ok {
			t.Errorf("parseRef(%q) accepted", bad)
		}
	}
}

func TestWarmUpSeedsAreDisjointFromTimedRounds(t *testing.T) {
	for _, master := range []uint64{1, 2, 12345} {
		timed := map[uint64]bool{}
		for r := 0; r < 1000; r++ {
			timed[deriveSeed(master, "round", r)] = true
		}
		if len(timed) != 1000 {
			t.Fatalf("seed %d: timed round seeds collide", master)
		}
		if timed[deriveSeed(master, "warmup", 0)] {
			t.Fatalf("seed %d: warm-up seed equals a timed round's", master)
		}
	}
}

func TestMismatchesCountsEveryBadAnswer(t *testing.T) {
	want := []answer{{URL: 1, Body: 10, Status: 200}, {URL: 2, Body: 20, Status: 200}, {URL: 3, Body: 30, Status: 200}}
	r := round{answers: []answer{
		{URL: 1, Body: 10, Status: 200}, // right
		{URL: 2, Body: 21, Status: 200}, // wrong body
		{URL: 3, Body: 30, Status: 503}, // not a 200
		{URL: 4, Body: 40, Status: 200}, // no such request in the oracle
	}}
	r.res.Requests = 5 // one request never answered
	if got := mismatches(r, want); got != 4 {
		t.Fatalf("mismatches = %d, want 4", got)
	}
}

// TestWrappersKeepAdsapiView checks the backend wrapper exposes Degraded
// and HealthStats exactly when the wrapped backend does.
func TestWrappersKeepAdsapiView(t *testing.T) {
	type degrader interface{ Degraded() bool }
	type healther interface{ HealthStats() serving.HealthStats }
	var local serving.ReachBackend = &tracedBackend{}
	if _, ok := local.(degrader); ok {
		t.Error("tracedBackend exposes Degraded")
	}
	if _, ok := local.(healther); ok {
		t.Error("tracedBackend exposes HealthStats")
	}
	var proxied serving.ReachBackend = tracedProxy{tracedBackend: &tracedBackend{}}
	if _, ok := proxied.(degrader); !ok {
		t.Error("tracedProxy hides Degraded")
	}
	if _, ok := proxied.(healther); !ok {
		t.Error("tracedProxy hides HealthStats")
	}
}

func smallStudyWorld() worldcfg.Config {
	cfg := studyWorld(3)
	cfg.Population.CatalogSize = 2000
	cfg.Population.PanelSize = 120
	cfg.Population.ProfileMedian = 80
	cfg.Population.ActivityGrid = 64
	return cfg
}

// TestStudyPathIsEstimateUniqueness checks the benchmark's untraced and
// traced study paths give World.EstimateUniqueness's Table 1 bit for bit.
func TestStudyPathIsEstimateUniqueness(t *testing.T) {
	cfg := smallStudyWorld()
	const boot = 40
	w, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	study, err := w.EstimateUniqueness(nanotarget.UniquenessOptions{BootstrapIters: boot})
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Row
	for _, e := range study.Estimates() {
		want = append(want, core.Row{Strategy: e.Strategy, Estimate: core.Estimate{
			P: e.P, NP: e.NP, CI: stats.CI{Lo: e.CILo, Hi: e.CIHi}, R2: e.R2}})
	}
	plain, err := untracedRep(cfg, boot)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedRep(cfg, boot, newRecorder(), newResult(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]core.Row{"untraced": plain.rows, "traced": traced.rows} {
		if rowsFingerprint(got) != rowsFingerprint(want) {
			t.Errorf("%s study rows differ from World.EstimateUniqueness:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if len(plain.latencies) != 2*cfg.Population.PanelSize {
		t.Errorf("timed %d PrefixReach calls, want one per user and strategy (%d)", len(plain.latencies), 2*cfg.Population.PanelSize)
	}
}

// TestFloodsEndToEnd runs both floods briefly, untraced and traced, and
// requires every answer to pass its check.
func TestFloodsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 20k-interest serving worlds")
	}
	for _, wl := range []string{wlFloodLocal, wlFloodProxy} {
		for _, traced := range []bool{false, true} {
			res, err := runFlood(context.Background(), wl, 2, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			out, err := res.finish(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !out.Correct || out.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", wl, traced, out.Failed, out.Attempted, res.failures)
			}
			if traced && wl == wlFloodProxy && out.Metrics["serving.shard_rpcs_per_req"].Value != 2*floodShards {
				t.Errorf("flood-proxy: %v shard RPCs per request, want %d", out.Metrics["serving.shard_rpcs_per_req"].Value, 2*floodShards)
			}
		}
	}
}
