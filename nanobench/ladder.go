package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/interest"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// rungBudget is roughly how long each ladder rung is timed for.
const rungBudget = 150 * time.Millisecond

// ladderSeed fixes the ladder's conjunction; it is not a workload input.
const ladderSeed = 0x1add3

// rung is one layer of the ladder: fn answers the warm conjunction once and
// returns a fingerprint of the answer (the share's bits or the body's hash).
type rung struct {
	name string
	fn   func() (uint64, error)
}

// ladder times one warm 18-interest conjunction at every rung, on a world
// of its own built from the flood config, and records ladder.<rung>.ns and
// ladder.<rung>.allocs (mean heap allocations per call, process-wide). It
// also checks the rungs agree: the engine, the LocalBackend and the
// one-shard proxy give the identical share, ShardedBackend N=2 and the
// two-shard proxy give the identical share, and the handler and loopback
// HTTP give the identical body.
func ladder(ctx context.Context, res *result) error {
	cfg := floodConfig()
	local, err := serving.NewLocalBackendFromConfig(cfg)
	if err != nil {
		return err
	}
	sharded, err := serving.NewShardedBackend(ctx, cfg, 2)
	if err != nil {
		return err
	}
	srv, err := adsapi.NewServer(adsapi.ServerConfig{Backend: local, Era: adsapi.Era2017})
	if err != nil {
		return err
	}
	api := httptest.NewServer(srv)
	defer api.Close()
	proxy1, close1, err := ladderProxy(ctx, cfg, 1)
	if err != nil {
		return err
	}
	defer close1()
	proxy2, close2, err := ladderProxy(ctx, cfg, 2)
	if err != nil {
		return err
	}
	defer close2()

	ids := make([]interest.ID, 0, specInterests)
	seen := map[interest.ID]bool{}
	for i := 0; len(ids) < specInterests; i++ {
		id := interest.ID(1 + deriveSeed(ladderSeed, "interest", i)%uint64(floodCatalog-1))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	clauses := make([][]interest.ID, len(ids))
	for i, id := range ids {
		clauses[i] = []interest.ID{id}
	}
	spec, err := json.Marshal(adsapi.ConjunctionSpec(adsapi.GeoLocations{Countries: []string{"US"}}, ids))
	if err != nil {
		return err
	}
	path := "/" + adsapi.APIVersion + "/act_1/reachestimate?" + url.Values{"targeting_spec": {string(spec)}}.Encode()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	client := &http.Client{Transport: tr}
	defer client.CloseIdleConnections()

	share := func(f func() float64) func() (uint64, error) {
		return func() (uint64, error) { return math.Float64bits(f()), nil }
	}
	body := func(status int, b []byte) (uint64, error) {
		if status != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d: %s", status, b)
		}
		return fnvBytes(fnvOffset, b), nil
	}
	rungs := []rung{
		{"engine_hit", share(func() float64 { return local.Engine().UnionShare(clauses) })},
		{"local_backend", share(func() float64 { return local.UnionShare(ctx, clauses) })},
		{"sharded_backend_2", share(func() float64 { return sharded.UnionShare(ctx, clauses) })},
		{"adsapi_handler", func() (uint64, error) {
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
			return body(rw.Code, rw.Body.Bytes())
		}},
		{"adsapi_http", func() (uint64, error) {
			resp, err := client.Get(api.URL + path)
			if err != nil {
				return 0, err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			return body(resp.StatusCode, b)
		}},
		{"proxy_1", share(func() float64 { return proxy1.UnionShare(ctx, clauses) })},
		{"proxy_2", share(func() float64 { return proxy2.UnionShare(ctx, clauses) })},
	}
	fps := map[string]uint64{}
	for _, r := range rungs {
		ns, allocs, fp, err := timeRung(r.fn)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		fps[r.name] = fp
		res.set("ladder."+r.name+".ns", ns)
		res.set("ladder."+r.name+".allocs", allocs)
	}
	for _, pair := range [][2]string{
		{"engine_hit", "local_backend"},
		{"local_backend", "proxy_1"},
		{"sharded_backend_2", "proxy_2"},
		{"adsapi_handler", "adsapi_http"},
	} {
		if fps[pair[0]] != fps[pair[1]] {
			res.fail(1, "ladder: %s and %s answered differently", pair[0], pair[1])
		}
	}
	return nil
}

// ladderProxy starts an n-shard topology on loopback and a ProxyBackend
// over it (probed once; no background health loop, so nothing else runs
// while a rung is timed).
func ladderProxy(ctx context.Context, cfg worldcfg.Config, n int) (*serving.ProxyBackend, func(), error) {
	var servers []*httptest.Server
	closeAll := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		b, info, err := serving.NewShardBackend(cfg, i, n)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		ss, err := serving.NewShardServer(b, info)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		ts := httptest.NewServer(ss)
		servers = append(servers, ts)
		urls[i] = ts.URL
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	p, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{URLs: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	p.ProbeNow(ctx)
	if st := p.HealthStats(); st.Down > 0 {
		closeAll()
		return nil, nil, fmt.Errorf("ladder proxy: %d shard(s) down", st.Down)
	}
	return p, func() { tr.CloseIdleConnections(); closeAll() }, nil
}

// timeRung warms fn, sizes an iteration count to about rungBudget, then
// times that many sequential calls and counts their heap allocations.
func timeRung(fn func() (uint64, error)) (ns, allocs float64, fp uint64, err error) {
	for i := 0; i < 50; i++ {
		if fp, err = fn(); err != nil {
			return 0, 0, 0, err
		}
	}
	k := 0
	for t := time.Now(); time.Since(t) < rungBudget/8; k++ {
		if _, err = fn(); err != nil {
			return 0, 0, 0, err
		}
	}
	n := max(100, k*8)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		got, err := fn()
		if err != nil {
			return 0, 0, 0, err
		}
		if got != fp {
			return 0, 0, 0, fmt.Errorf("answer changed between calls")
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), fp, nil
}
