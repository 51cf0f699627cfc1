package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/audience"
	"nanotarget/internal/loadgen"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// The floods replay the Faizullabhoy–Korolova permuted re-probe
// (internal/loadgen) in closed loop: one client per core, each an attacker
// account waiting on its reply. The timed phase is a sequence of rounds;
// round r is one loadgen run of roundAccounts accounts × roundProbes
// permuted re-probes of an 18-interest set, seeded from the workload seed.
const (
	roundAccounts = 25
	roundProbes   = 20
	warmAccounts  = 50
	specInterests = 18
	floodCatalog  = 20_000
	floodPop      = 100_000_000
	floodShards   = 2
	setupRepeats  = 5
)

// floodConfig is the served world: fbadsd's defaults (seed 1, grid 512,
// ModeExact engine, no admission, no gate) at a 20k catalog and 1e8 users.
func floodConfig() worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.CatalogSize = floodCatalog
	cfg.Population.Population = floodPop
	return cfg
}

// deriveSeed maps (workload seed, label, index) to a loadgen seed
// (splitmix64 over an FNV-1a of the label). Distinct labels give disjoint
// streams, so the warm-up never replays a timed round.
func deriveSeed(master uint64, label string, i int) uint64 {
	x := master ^ fnvString(fnvOffset, label) ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// served holds the program's backends: one LocalBackend (flood-local) or
// the shard backends behind the proxy (flood-proxy).
type served struct {
	local  *serving.LocalBackend
	shards []*serving.LocalBackend
	infos  []serving.ShardInfo
}

func (w *served) backends() []*serving.LocalBackend {
	if w.local != nil {
		return []*serving.LocalBackend{w.local}
	}
	return w.shards
}

func (w *served) rowStats() (rows int, bytes int64) {
	for _, b := range w.backends() {
		r, by := b.Model().RowStats()
		rows += r
		bytes += by
	}
	return rows, bytes
}

// front is one HTTP serving stack over a served world: adsapi on a loopback
// listener and, for the proxy, the shard servers and the ProxyBackend. With
// a recorder every boundary is wrapped; without one the stack is exactly
// the program's.
type front struct {
	url        string
	backend    serving.ReachBackend
	proxy      *serving.ProxyBackend
	rpc        *rpcTap
	tap        *clientTap
	client     *http.Client
	servers    []*httptest.Server
	stopHealth context.CancelFunc
}

func newFront(ctx context.Context, cfg worldcfg.Config, w *served, rec *recorder, clients int) (*front, error) {
	f := &front{}
	if w.local != nil {
		f.backend = w.local
	} else {
		topo := make([][]string, len(w.shards))
		for i, b := range w.shards {
			ss, err := serving.NewShardServer(b, w.infos[i])
			if err != nil {
				f.close()
				return nil, err
			}
			var h http.Handler = ss
			if rec != nil {
				h = serveTap{next: ss, rec: rec, name: spanShardServe}
			}
			ts := httptest.NewServer(h)
			f.servers = append(f.servers, ts)
			topo[i] = []string{ts.URL}
		}
		// fbadsd -proxy's client: a plain http.Client on the default
		// transport, health probes every second, fail policy, no hedging.
		client := &http.Client{}
		if rec != nil {
			f.rpc = &rpcTap{base: http.DefaultTransport, rec: rec}
			client = &http.Client{Transport: f.rpc}
		}
		p, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{
			Shards:        topo,
			Timeout:       10 * time.Second,
			Policy:        serving.PolicyFail,
			ProbeInterval: time.Second,
			Client:        client,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		p.ProbeNow(ctx)
		if st := p.HealthStats(); st.Down > 0 {
			f.close()
			return nil, fmt.Errorf("proxy: %d shard replica(s) down at start-up", st.Down)
		}
		hctx, cancel := context.WithCancel(context.Background())
		p.StartHealth(hctx)
		f.stopHealth = cancel
		f.proxy = p
		f.backend = p
	}
	backend := f.backend
	if rec != nil {
		tb := &tracedBackend{ReachBackend: f.backend, rec: rec}
		backend = tb
		if f.proxy != nil {
			backend = tracedProxy{tracedBackend: tb, proxy: f.proxy}
		}
	}
	srv, err := adsapi.NewServer(adsapi.ServerConfig{Backend: backend, Era: adsapi.Era2017})
	if err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = srv
	if rec != nil {
		h = serveTap{next: srv, rec: rec, name: spanServe}
	}
	ts := httptest.NewServer(h)
	f.servers = append(f.servers, ts)
	f.url = ts.URL
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	f.tap = &clientTap{base: tr}
	f.client = &http.Client{Timeout: 30 * time.Second, Transport: f.tap}
	return f, nil
}

// close stops the health loop and the listeners, API first.
func (f *front) close() {
	if f.stopHealth != nil {
		f.stopHealth()
	}
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
	f.servers = nil
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// round is one loadgen run and the answers the client tap saw.
type round struct {
	seed    uint64
	res     loadgen.Result
	answers []answer
}

func runRound(ctx context.Context, f *front, seed uint64, accounts, clients int) (round, error) {
	sink := &answerSink{answers: make([]answer, 0, accounts*roundProbes)}
	f.tap.sink.Store(sink)
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:          f.url,
		Accounts:         accounts,
		ProbesPerAccount: roundProbes,
		Interests:        specInterests,
		CatalogSize:      floodCatalog,
		Concurrency:      clients,
		Seed:             seed,
		Client:           f.client,
	})
	f.tap.sink.Store(nil)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	return round{seed: seed, res: res, answers: sink.answers}, err
}

// phase is a sequence of timed rounds.
type phase struct{ rounds []round }

// runPhase runs rounds seeded from master until budget has elapsed, or
// exactly n rounds when n > 0 (the traced replay of an untraced phase).
func runPhase(ctx context.Context, f *front, master uint64, clients int, budget time.Duration, n int) (phase, error) {
	var ph phase
	start := time.Now()
	for r := 0; ; r++ {
		if (n > 0 && r >= n) || (n <= 0 && r > 0 && time.Since(start) >= budget) {
			return ph, nil
		}
		rd, err := runRound(ctx, f, deriveSeed(master, "round", r), roundAccounts, clients)
		if err != nil {
			return ph, err
		}
		ph.rounds = append(ph.rounds, rd)
	}
}

func (ph phase) requests() int {
	n := 0
	for _, r := range ph.rounds {
		n += r.res.Requests
	}
	return n
}

// view is the end-to-end view of a flood phase or of a set of study
// repetitions; studyS is a flood round's or a study's wall time.
type view struct {
	throughput, p50, p90, p99, studyS float64
	samples                           int
}

// e2e computes the phase's end-to-end metrics, each the median over its
// rounds, so a burst of interference from outside the process moves a few
// rounds and not the result: 200 answers per second of loadgen time, the
// latency p50 and p90 of the round's answered requests (500 a round, so 50
// beyond the p90), and the round (campaign) wall time. The p99 is taken
// over the whole phase, as a round has too few requests beyond it.
func (ph phase) e2e() view {
	var thr, q50, q90, secs, all []float64
	var v view
	for _, r := range ph.rounds {
		ok := 0
		var lats []float64
		for _, a := range r.answers {
			if a.Status == http.StatusOK {
				ok++
			}
			if a.Status != 0 {
				lats = append(lats, float64(a.Latency)/float64(time.Millisecond))
			}
		}
		all = append(all, lats...)
		thr = append(thr, float64(ok)/r.res.Duration.Seconds())
		q50 = append(q50, quantile(lats, 0.50))
		q90 = append(q90, quantile(lats, 0.90))
		secs = append(secs, r.res.Duration.Seconds())
	}
	v.throughput, v.p50, v.p90, v.studyS = median(thr), median(q50), median(q90), median(secs)
	v.p99, v.samples = quantile(all, 0.99), len(all)
	return v
}

// warmUp fills the rows (ReachBackend.WarmRows) and the connections (one
// round on the warm-up stream, disjoint from the timed rounds).
func warmUp(ctx context.Context, f *front, master uint64, clients int) error {
	f.backend.WarmRows(ctx)
	rd, err := runRound(ctx, f, deriveSeed(master, "warmup", 0), warmAccounts, clients)
	if err != nil {
		return err
	}
	if rd.res.OK != rd.res.Requests {
		return fmt.Errorf("warm-up: %d of %d requests not answered", rd.res.Requests-rd.res.OK, rd.res.Requests)
	}
	return nil
}

// setupTimes are the pieces of one set-up, in seconds.
type setupTimes struct{ catalog, model, warmup, total float64 }

// setUp builds the served world and its untraced front, then warms it.
func setUp(ctx context.Context, wl string, cfg worldcfg.Config, master uint64, clients int) (*served, *front, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	w := &served{}
	if wl == wlFloodLocal {
		t := time.Now()
		cat, err := cfg.BuildCatalog()
		if err != nil {
			return nil, nil, st, err
		}
		st.catalog = time.Since(t).Seconds()
		t = time.Now()
		model, err := cfg.BuildModel(cat, 0)
		if err != nil {
			return nil, nil, st, err
		}
		w.local, err = serving.NewLocalBackend(model, cfg.NewEngine(model))
		if err != nil {
			return nil, nil, st, err
		}
		st.model = time.Since(t).Seconds()
	} else {
		// Each shard builds its own catalog and model, as fbadsd -shard-of
		// does; the proxy's catalog is timed below.
		t := time.Now()
		for i := 0; i < floodShards; i++ {
			b, info, err := serving.NewShardBackend(cfg, i, floodShards)
			if err != nil {
				return nil, nil, st, err
			}
			w.shards = append(w.shards, b)
			w.infos = append(w.infos, info)
		}
		st.model = time.Since(t).Seconds()
	}
	t := time.Now()
	f, err := newFront(ctx, cfg, w, nil, clients)
	if err != nil {
		return nil, nil, st, err
	}
	if wl == wlFloodProxy {
		st.catalog = time.Since(t).Seconds()
	}
	t = time.Now()
	if err := warmUp(ctx, f, master, clients); err != nil {
		f.close()
		return nil, nil, st, err
	}
	st.warmup = time.Since(t).Seconds()
	st.total = time.Since(start).Seconds()
	return w, f, st, nil
}

// oracle answers the same rounds in-process, through adsapi.Server with no
// socket over an independently built backend: the same config's
// LocalBackend for flood-local, ShardedBackend N=2 for flood-proxy.
type oracle struct {
	client *http.Client
	tap    *clientTap
}

func newOracle(ctx context.Context, wl string, cfg worldcfg.Config) (*oracle, error) {
	var backend serving.ReachBackend
	var err error
	if wl == wlFloodLocal {
		backend, err = serving.NewLocalBackendFromConfig(cfg)
	} else {
		backend, err = serving.NewShardedBackend(ctx, cfg, floodShards)
	}
	if err != nil {
		return nil, err
	}
	srv, err := adsapi.NewServer(adsapi.ServerConfig{Backend: backend, Era: adsapi.Era2017})
	if err != nil {
		return nil, err
	}
	tap := &clientTap{base: handlerTransport{h: srv}}
	return &oracle{client: &http.Client{Transport: tap}, tap: tap}, nil
}

// check replays every round of ph on the oracle and counts the requests
// whose answer was not a 200 byte-identical to the oracle's. Answers are
// matched by URL, so the replay runs one client per core whatever the
// phase's client count was.
func (o *oracle) check(ctx context.Context, ph phase) (int, error) {
	f := &front{url: "http://oracle", tap: o.tap, client: o.client}
	failed := 0
	for _, r := range ph.rounds {
		want, err := runRound(ctx, f, r.seed, roundAccounts, runtime.NumCPU())
		if err != nil {
			return 0, err
		}
		failed += mismatches(r, want.answers)
	}
	return failed, nil
}

// mismatches counts the requests of r not answered 200 with the body want
// holds for the same URL.
func mismatches(r round, want []answer) int {
	bodies := make(map[uint64]uint64, len(want))
	for _, a := range want {
		if a.Status == http.StatusOK {
			bodies[a.URL] = a.Body
		}
	}
	failed := r.res.Requests - len(r.answers)
	for _, a := range r.answers {
		if b, ok := bodies[a.URL]; a.Status != http.StatusOK || !ok || b != a.Body {
			failed++
		}
	}
	return failed
}

// runFlood runs flood-local or flood-proxy.
func runFlood(ctx context.Context, wl string, seed uint64, seconds int, traced bool) (*result, error) {
	clients := runtime.NumCPU()
	cfg := floodConfig()
	if traced {
		return traceFlood(ctx, wl, cfg, seed, seconds, clients)
	}
	var (
		f      *front
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			// Drop the previous set-up's world before building the next.
			f.close()
			f = nil
			release()
		}
		var st setupTimes
		var err error
		_, f, st, err = setUp(ctx, wl, cfg, seed, clients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.total)
	}
	ph, err := runPhase(ctx, f, seed, clients, time.Duration(seconds)*time.Second, 0)
	f.close()
	f = nil
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	release() // the served world is garbage now; the oracle builds its own
	checkStart := time.Now()
	o, err := newOracle(ctx, wl, cfg)
	if err != nil {
		return nil, err
	}
	failed, err := o.check(ctx, ph)
	if err != nil {
		return nil, err
	}
	v := ph.e2e()
	res := newResult(ph.requests(), failed)
	res.note("rounds=%d requests=%d latency_samples=%d clients=%d (closed loop); oracle check took %.1fs",
		len(ph.rounds), ph.requests(), v.samples, clients, time.Since(checkStart).Seconds())
	res.tail(v)
	res.set("setup_s", median(setups))
	res.set("throughput_rps", v.throughput)
	res.set("latency_p50_ms", v.p50)
	res.set("latency_p90_ms", v.p90)
	res.set("study_s", v.studyS)
	res.set("rss_peak_mb", peak)
	return res, nil
}

// traceFlood is the traced run: one set-up, an untraced phase of half the
// run on the program's own stack, then the identical rounds replayed on a
// wrapped stack over the same world. End-to-end numbers come from the
// untraced phase; per-layer numbers from the spans of the traced one.
func traceFlood(ctx context.Context, wl string, cfg worldcfg.Config, seed uint64, seconds int, clients int) (*result, error) {
	w, raw, st, err := setUp(ctx, wl, cfg, seed, clients)
	if err != nil {
		return nil, err
	}
	defer raw.close()
	rec := newRecorder()
	tf, err := newFront(ctx, cfg, w, rec, clients)
	if err != nil {
		return nil, err
	}
	defer tf.close()
	if err := warmUp(ctx, tf, seed, clients); err != nil {
		return nil, err
	}

	budget := time.Duration(seconds) * time.Second / 2
	aud0, c0 := raw.backend.AudienceStats(ctx), readCounters()
	untraced, err := runPhase(ctx, raw, seed, clients, budget, 0)
	if err != nil {
		return nil, err
	}
	c1, aud1 := readCounters(), raw.backend.AudienceStats(ctx)
	tf.tap.rec.Store(rec)
	traced, err := runPhase(ctx, tf, seed, clients, 0, len(untraced.rounds))
	tf.tap.rec.Store(nil)
	if err != nil {
		return nil, err
	}

	// Correctness: the untraced answers against the oracle, the traced
	// answers against the untraced ones (tracing must be transparent).
	o, err := newOracle(ctx, wl, cfg)
	if err != nil {
		return nil, err
	}
	failed, err := o.check(ctx, untraced)
	if err != nil {
		return nil, err
	}
	for i, r := range traced.rounds {
		failed += mismatches(r, untraced.rounds[i].answers)
	}

	res := newResult(untraced.requests()+traced.requests(), failed)
	spans := rec.all()
	for name, v := range floodLayers(spans) {
		res.set(name, v)
	}
	if tf.rpc != nil {
		res.set("serving.rpc_failed", float64(tf.rpc.failed.Load()))
		var hs serving.HealthStats
		for _, p := range []*serving.ProxyBackend{raw.proxy, tf.proxy} {
			s := p.HealthStats()
			hs.Hedged += s.Hedged
			hs.Failovers += s.Failovers
			hs.RetryBudgetExhausted += s.RetryBudgetExhausted
		}
		res.set("serving.hedged", float64(hs.Hedged))
		res.set("serving.failovers", float64(hs.Failovers))
		res.set("serving.retry_budget_exhausted", float64(hs.RetryBudgetExhausted))
	}
	setAudience(res, aud0, aud1)
	rows, bytes := w.rowStats()
	res.set("population.rows", float64(rows))
	res.set("population.row_mib", float64(bytes)/(1<<20))
	n := float64(untraced.requests())
	res.set("process.allocs_per_req", float64(c1.mallocs-c0.mallocs)/n)
	res.set("process.bytes_per_req", float64(c1.bytes-c0.bytes)/n)
	res.set("process.cpu_ms_per_req", float64(c1.cpu-c0.cpu)/float64(time.Millisecond)/n)
	res.set("setup.catalog_s", st.catalog)
	res.set("setup.model_s", st.model)
	res.set("setup.warmup_s", st.warmup)

	u, t := untraced.e2e(), traced.e2e()
	res.overhead(u, t)
	res.note("untraced: rounds=%d throughput_rps=%.1f p50_ms=%.4f p90_ms=%.4f; traced: throughput_rps=%.1f p50_ms=%.4f p90_ms=%.4f; spans=%d",
		len(untraced.rounds), u.throughput, u.p50, u.p90, t.throughput, t.p50, t.p90, len(spans))

	// Stop both stacks (and the proxies' health loops) before the ladder,
	// so nothing else runs while a rung is timed.
	raw.close()
	tf.close()
	if err := ladder(ctx, res); err != nil {
		return nil, err
	}
	if err := rec.write(traceFile(wl, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// setAudience records the engine counters' change between two snapshots.
func setAudience(res *result, a, b audience.Stats) {
	ratio := func(x, y audience.LevelStats) float64 {
		hits, misses := y.Hits-x.Hits, y.Misses-x.Misses
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	res.set("audience.prefix.hit_ratio", ratio(a.Prefix, b.Prefix))
	res.set("audience.set.hit_ratio", ratio(a.Set, b.Set))
	res.set("audience.demo.hit_ratio", ratio(a.Demo, b.Demo))
	ev := (b.Prefix.Evictions + b.Set.Evictions + b.Demo.Evictions) - (a.Prefix.Evictions + a.Set.Evictions + a.Demo.Evictions)
	co := (b.Prefix.Coalesced + b.Set.Coalesced + b.Demo.Coalesced) - (a.Prefix.Coalesced + a.Set.Coalesced + a.Demo.Coalesced)
	res.set("audience.evictions", float64(ev))
	res.set("audience.coalesced", float64(co))
}

// floodLayers derives the per-layer flood metrics from the traced phase's
// spans.
func floodLayers(spans []span) map[string]float64 {
	kids := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var (
		reqs, backendCalls, rpcs                     int
		serve, self, wait, backend, rpc, shard, wire []float64
		skew                                         []float64
	)
	for _, s := range spans {
		children := kids[s.ID]
		switch s.Name {
		case spanClient:
			reqs++
			for _, c := range children {
				if c.Name == spanServe {
					wait = append(wait, us(s.dur()-c.dur()))
				}
			}
		case spanServe:
			serve = append(serve, us(s.dur()))
			self = append(self, us(selfTime(s, children)))
			backendCalls += len(children)
		case spanBackend:
			backend = append(backend, us(s.dur()))
			rpcs += len(children)
			if len(children) >= 2 {
				lo, hi := children[0].dur(), children[0].dur()
				for _, c := range children[1:] {
					lo, hi = min(lo, c.dur()), max(hi, c.dur())
				}
				skew = append(skew, us(hi-lo))
			}
		case spanShardRPC:
			rpc = append(rpc, us(s.dur()))
			for _, c := range children {
				shard = append(shard, us(c.dur()))
				wire = append(wire, us(s.dur()-c.dur()))
			}
		}
	}
	out := map[string]float64{}
	if reqs == 0 {
		return out
	}
	q := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, p)
	}
	out["adsapi.serve_us.p50"] = q(serve, 0.5)
	out["adsapi.serve_us.p99"] = q(serve, 0.99)
	out["adsapi.self_us.p50"] = q(self, 0.5)
	out["http.wait_us.p50"] = q(wait, 0.5)
	out["http.wait_us.p99"] = q(wait, 0.99)
	out["serving.backend_us.p50"] = q(backend, 0.5)
	out["serving.backend_us.p99"] = q(backend, 0.99)
	out["serving.backend_calls_per_req"] = float64(backendCalls) / float64(reqs)
	out["serving.shard_rpcs_per_req"] = float64(rpcs) / float64(reqs)
	out["serving.shard_rpc_us.p50"] = q(rpc, 0.5)
	out["serving.shard_rpc_us.p99"] = q(rpc, 0.99)
	out["serving.shard_self_us.p50"] = q(shard, 0.5)
	out["serving.shard_wire_us.p50"] = q(wire, 0.5)
	out["serving.fanout_skew_us.p99"] = q(skew, 0.99)
	return out
}
