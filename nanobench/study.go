package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	nanotarget "nanotarget"
	"nanotarget/internal/audience"
	"nanotarget/internal/core"
	"nanotarget/internal/fdvt"
	"nanotarget/internal/worldcfg"
)

// study-cold runs the §4 Table 1 study from a cold start, as every
// cmd/uniqueness run does: a fresh world, engine and row table per
// repetition, strategies LP and R, P ∈ {0.5, 0.8, 0.9, 0.95} and the
// paper's 10,000-iteration bootstrap.
const (
	studyCatalog   = 20_000
	studyPanel     = 2390
	studyMedian    = 426
	studyGrid      = 512
	studyBootstrap = 10_000
	studyMinReps   = 3
)

var studyPs = []float64{0.5, 0.8, 0.9, 0.95}

func studySelectors() []core.Selector { return []core.Selector{core.LeastPopular{}, core.Random{}} }

// studyWorld is the study's world config; the workload seed is the world
// seed, so the panel the study runs on is the generated input.
func studyWorld(seed uint64) worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = seed
	cfg.Population.CatalogSize = studyCatalog
	cfg.Population.PanelSize = studyPanel
	cfg.Population.ProfileMedian = studyMedian
	cfg.Population.ActivityGrid = studyGrid
	return cfg
}

// studyConfig mirrors World.EstimateUniqueness's core.StudyConfig for the
// world built from cfg, with boot bootstrap iterations.
func studyConfig(cfg worldcfg.Config, boot int) core.StudyConfig {
	return core.StudyConfig{
		Ps:             studyPs,
		Selectors:      studySelectors(),
		MaxN:           core.MaxCombinationInterests,
		BootstrapIters: boot,
		CILevel:        0.95,
		Rand:           cfg.Root().Derive("uniqueness"),
		Parallelism:    cfg.Parallelism,
	}
}

// rep is one repetition's outcome.
type rep struct {
	setup, study time.Duration
	rssMB        float64 // peak resident set of the process up to the repetition's end
	rows         []core.Row
	latencies    []time.Duration
}

// untracedRep builds the world with nanotarget.NewWorldFromConfig and runs
// core.RunStudy on it — World.EstimateUniqueness's own call — through a
// source tap that only times PrefixReach.
func untracedRep(cfg worldcfg.Config, boot int) (rep, error) {
	start := time.Now()
	w, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		return rep{}, err
	}
	setup := time.Since(start)
	src := &sourceTap{ModelSource: core.NewEngineSource(w.Audience())}
	start = time.Now()
	res, err := core.RunStudy(w.PanelUsers(), src, studyConfig(cfg, boot))
	study := time.Since(start)
	if err != nil {
		return rep{}, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return rep{}, err
	}
	return rep{setup: setup, study: study, rssMB: peak, rows: res.Rows, latencies: src.latencies()}, nil
}

// tracedRep builds the same world step by step and runs the study's
// Collect and EstimateNP calls one by one, recording a span for each set-up
// step, each collection, each PrefixReach and each estimate, plus the CPU
// time of the collect and estimate phases.
func tracedRep(cfg worldcfg.Config, boot int, rec *recorder, res *result) (rep, error) {
	root := traceRef{Req: rec.id()}
	step := func(name string, start int64) {
		rec.add(span{Req: root.Req, ID: rec.id(), Parent: root.Req, Name: spanSetup + "." + name, Start: start, End: rec.now()})
		res.set("setup."+name+"_s", float64(rec.now()-start)/1e9)
	}
	t := rec.now()
	setupStart := time.Now()
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return rep{}, err
	}
	step("catalog", t)
	t = rec.now()
	model, err := cfg.BuildModel(cat, 0)
	if err != nil {
		return rep{}, err
	}
	step("model", t)
	t = rec.now()
	pcfg := fdvt.DefaultPanelConfig(model)
	pcfg.Size = cfg.Population.PanelSize
	pcfg.ProfileMedian = cfg.Population.ProfileMedian
	if pcfg.ProfileMax > float64(cat.Len()) {
		pcfg.ProfileMax = float64(cat.Len())
	}
	panel, err := fdvt.BuildPanel(pcfg, cfg.Root().Derive("panel"))
	if err != nil {
		return rep{}, err
	}
	step("panel", t)
	engine := cfg.NewEngine(model)
	setup := time.Since(setupStart)

	sc := studyConfig(cfg, boot)
	out := rep{setup: setup}
	var collectWall, collectCPU, estimateWall, estimateCPU, busy time.Duration
	studyStart := time.Now()
	for _, sel := range sc.Selectors {
		ref := traceRef{Req: root.Req, Span: rec.id()}
		src := &sourceTap{ModelSource: core.NewEngineSource(engine), rec: rec, parent: ref}
		t0, cpu0 := rec.now(), cpuTime()
		samples, err := core.Collect(panel.Users, sel, src, core.CollectConfig{
			MaxN:        sc.MaxN,
			Seed:        sc.Rand.Derive("collect/" + sel.Name()),
			Parallelism: sc.Parallelism,
		})
		if err != nil {
			return rep{}, err
		}
		t1, cpu1 := rec.now(), cpuTime()
		rec.add(span{Req: root.Req, ID: ref.Span, Parent: root.Req, Name: spanCollect, Start: t0, End: t1})
		res.set("core.collect_s."+sel.Name(), float64(t1-t0)/1e9)
		collectWall += time.Duration(t1 - t0)
		collectCPU += cpu1 - cpu0
		lats := src.latencies()
		for _, l := range lats {
			busy += l
		}
		out.latencies = append(out.latencies, lats...)
		for _, p := range sc.Ps {
			t0, cpu0 := rec.now(), cpuTime()
			est, err := core.EstimateNP(samples, p, core.EstimateConfig{
				BootstrapIters: sc.BootstrapIters,
				CILevel:        sc.CILevel,
				Rand:           sc.Rand.Derive(fmt.Sprintf("boot/%s/%.3f", sel.Name(), p)),
				Parallelism:    sc.Parallelism,
			})
			if err != nil {
				return rep{}, err
			}
			t1 := rec.now()
			rec.add(span{Req: root.Req, ID: rec.id(), Parent: root.Req, Name: spanEstimate, Start: t0, End: t1})
			estimateWall += time.Duration(t1 - t0)
			estimateCPU += cpuTime() - cpu0
			out.rows = append(out.rows, core.Row{Strategy: sel.Name(), Estimate: est})
		}
	}
	out.study = time.Since(studyStart)
	procs := float64(runtime.GOMAXPROCS(0))
	res.set("core.source_busy_s", busy.Seconds())
	res.set("core.estimate_s", estimateWall.Seconds())
	res.set("core.resample_us", float64(estimateWall.Microseconds())/float64(len(out.rows)*sc.BootstrapIters))
	res.set("parallel.cpu_util.collect", collectCPU.Seconds()/(collectWall.Seconds()*procs))
	res.set("parallel.cpu_util.estimate", estimateCPU.Seconds()/(estimateWall.Seconds()*procs))
	setAudience(res, audience.Stats{}, engine.Stats())
	rows, bytes := model.RowStats()
	res.set("population.rows", float64(rows))
	res.set("population.row_mib", float64(bytes)/(1<<20))
	return out, nil
}

// rowsFingerprint hashes every field of the Table 1 rows bit for bit.
func rowsFingerprint(rows []core.Row) uint64 {
	h := uint64(fnvOffset)
	for _, r := range rows {
		h = fnvString(h, r.Strategy)
		e := r.Estimate
		for _, v := range []float64{e.P, e.NP, e.CI.Lo, e.CI.Hi, e.R2} {
			h = fnvString(h, fmt.Sprintf("%016x", math.Float64bits(v)))
		}
	}
	return h
}

// badRows counts the rows that are not finite or whose CI does not bracket
// their N_P.
func badRows(rows []core.Row) int {
	bad := 0
	for _, r := range rows {
		e := r.Estimate
		finite := true
		for _, v := range []float64{e.NP, e.CI.Lo, e.CI.Hi, e.R2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		if !finite || e.CI.Lo > e.NP || e.NP > e.CI.Hi {
			bad++
		}
	}
	return bad
}

// studyE2E is the latency and throughput view of a set of repetitions:
// PrefixReach latency quantiles, prefix-chain queries per second of study
// wall time and the median study wall time.
func studyE2E(reps []rep) view {
	var lats []float64
	var calls int
	var wall time.Duration
	for _, r := range reps {
		calls += len(r.latencies)
		wall += r.study
		for _, l := range r.latencies {
			lats = append(lats, float64(l)/float64(time.Millisecond))
		}
	}
	studies := make([]float64, len(reps))
	for i, r := range reps {
		studies[i] = r.study.Seconds()
	}
	return view{
		throughput: float64(calls) / wall.Seconds(),
		p50:        quantile(lats, 0.50),
		p90:        quantile(lats, 0.90),
		p99:        quantile(lats, 0.99),
		studyS:     median(studies),
		samples:    len(lats),
	}
}

func runStudy(ctx context.Context, seed uint64, seconds int, traced bool) (*result, error) {
	cfg := studyWorld(seed)
	if traced {
		return traceStudy(ctx, cfg, seed)
	}
	var reps []rep
	start := time.Now()
	for len(reps) < studyMinReps || time.Since(start) < time.Duration(seconds)*time.Second {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		release()
		r, err := untracedRep(cfg, studyBootstrap)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	res := newResult(len(reps)*len(reps[0].rows), 0)
	checkReps(res, reps)
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
	}
	v := studyE2E(reps)
	res.note("repetitions=%d latency_samples=%d (PrefixReach calls) table1_hash=%016x", len(reps), v.samples, rowsFingerprint(reps[0].rows))
	res.tail(v)
	res.set("setup_s", median(setups))
	res.set("throughput_rps", v.throughput)
	res.set("latency_p50_ms", v.p50)
	res.set("latency_p90_ms", v.p90)
	res.set("study_s", v.studyS)
	res.set("rss_peak_mb", reps[len(reps)-1].rssMB)
	return res, nil
}

// checkReps fails every row that is malformed or differs from the first
// repetition's.
func checkReps(res *result, reps []rep) {
	want := rowsFingerprint(reps[0].rows)
	for i, r := range reps {
		if n := badRows(r.rows); n > 0 {
			res.fail(n, "repetition %d: %d Table 1 row(s) not finite or CI not bracketing N_P", i, n)
		}
		if rowsFingerprint(r.rows) != want {
			res.fail(len(r.rows), "repetition %d: Table 1 rows differ from repetition 0", i)
		}
	}
}

// traceStudy is study-cold's traced run: one untraced repetition for the
// reference numbers, one traced repetition for the per-layer ones, then
// the ladder. The two repetitions must give identical Table 1 rows.
func traceStudy(ctx context.Context, cfg worldcfg.Config, seed uint64) (*result, error) {
	release()
	plain, err := untracedRep(cfg, studyBootstrap)
	if err != nil {
		return nil, err
	}
	release()
	rec := newRecorder()
	res := newResult(2*len(plain.rows), 0)
	traced, err := tracedRep(cfg, studyBootstrap, rec, res)
	if err != nil {
		return nil, err
	}
	checkReps(res, []rep{plain, traced})
	res.overhead(studyE2E([]rep{plain}), studyE2E([]rep{traced}))
	res.note("untraced study_s=%.3f traced study_s=%.3f spans=%d", plain.study.Seconds(), traced.study.Seconds(), rec.len())
	if err := ladder(ctx, res); err != nil {
		return nil, err
	}
	if err := rec.write(traceFile(wlStudyCold, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}
