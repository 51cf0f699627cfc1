package adsapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// proxyWorld is the e2e test world: small enough to build four shard models
// in test time.
func proxyWorld() worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = 7
	cfg.Population.CatalogSize = 2000
	cfg.Population.Population = 5_000_001
	cfg.Population.ActivityGrid = 64
	return cfg
}

// startProxyAPI boots a 2-shard RPC topology, fronts it with a ProxyBackend
// under the given policy (shard RPCs through client; nil is a plain client),
// and mounts the Marketing API server on it. It returns the API base URL and
// the second shard's httptest server (the one the tests kill).
func startProxyAPI(t *testing.T, policy serving.Policy, client *http.Client) (string, *httptest.Server, *serving.ProxyBackend) {
	t.Helper()
	cfg := proxyWorld()
	var shardServers []*httptest.Server
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		b, info, err := serving.NewShardBackend(cfg, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serving.NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		shardServers = append(shardServers, ts)
		urls[i] = ts.URL
	}
	proxy, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{
		URLs: urls, Policy: policy, MaxRetries: 1, RetryBase: time.Millisecond,
		Client: client,
		Sleep:  func(ctx context.Context, d time.Duration) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	api, err := NewServer(ServerConfig{Backend: proxy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts.URL, shardServers[1], proxy
}

// TestServerOverProxyRenormalize: the API keeps answering through a proxy
// that lost a shard under the renormalize policy, and stamps those responses
// "degraded": true (healthy responses omit the field).
func TestServerOverProxyRenormalize(t *testing.T) {
	base, shard1, proxy := startProxyAPI(t, serving.PolicyRenormalize, nil)
	c, err := NewClient(ClientConfig{BaseURL: base, MaxRetries: 1,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}

	spec := ConjunctionSpec(es(), nil)
	healthy, err := c.ReachEstimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if healthy <= 0 {
		t.Fatalf("healthy reach %d", healthy)
	}
	raw := fetchReachBody(t, base, spec)
	if strings.Contains(string(raw), `"degraded"`) {
		t.Fatalf("healthy response carries a degraded stamp: %s", raw)
	}

	shard1.Close()
	degraded, err := c.ReachEstimate(context.Background(), spec)
	if err != nil {
		t.Fatalf("renormalize proxy stopped answering with one shard down: %v", err)
	}
	if degraded <= 0 {
		t.Fatalf("degraded reach %d", degraded)
	}
	if !proxy.Degraded() {
		t.Fatal("proxy not degraded after losing a shard")
	}
	raw = fetchReachBody(t, base, spec)
	var resp struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil || !resp.Degraded {
		t.Fatalf("degraded response not stamped: %s (err %v)", raw, err)
	}
}

// TestServerOverProxyFail: under the fail policy a down shard turns API
// requests into 503s whose JSON body names the dead shard's URL.
func TestServerOverProxyFail(t *testing.T) {
	base, shard1, _ := startProxyAPI(t, serving.PolicyFail, nil)
	spec := ConjunctionSpec(es(), nil)

	// Healthy: normal service.
	if status, _ := rawReach(t, base, spec); status != http.StatusOK {
		t.Fatalf("healthy topology: HTTP %d", status)
	}

	shard1.Close()
	status, body := rawReach(t, base, spec)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("fail policy with a dead shard: HTTP %d, want 503 (body %s)", status, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("503 body is not an error envelope: %s", body)
	}
	if env.Error.Code != CodeServiceUnavailable {
		t.Fatalf("503 error code %d, want %d", env.Error.Code, CodeServiceUnavailable)
	}
	if !strings.Contains(env.Error.Message, shard1.URL) {
		t.Fatalf("503 body %q does not name the dead shard %s", env.Error.Message, shard1.URL)
	}
}

// countingTransport counts the shard RPCs a proxy issues.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestProxyRPCsPerReachEstimate is the host-independent count gate on the
// proxy→shard hop: one /reachestimate — conjunction, flexible union or no
// interests at all — and one Appendix C conditional audience each cost
// exactly one data-path RPC per shard.
func TestProxyRPCsPerReachEstimate(t *testing.T) {
	rpcs := &countingTransport{}
	base, _, proxy := startProxyAPI(t, serving.PolicyFail, &http.Client{Transport: rpcs})
	const shards = 2
	union := TargetingSpec{GeoLocations: es(), FlexibleSpec: []FlexibleClause{
		{Interests: []InterestRef{{ID: FBInterestID(10)}, {ID: FBInterestID(20)}}},
		{Interests: []InterestRef{{ID: FBInterestID(30)}}},
	}}
	for _, spec := range []TargetingSpec{
		ConjunctionSpec(es(), []interest.ID{1, 2, 3}),
		union,
		ConjunctionSpec(es(), nil),
	} {
		before := rpcs.n.Load()
		if status, body := rawReach(t, base, spec); status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
		if got := rpcs.n.Load() - before; got != shards {
			t.Fatalf("spec %s cost %d shard RPCs, want one per shard (%d)", marshalJSON(spec), got, shards)
		}
	}
	before := rpcs.n.Load()
	proxy.ConditionalAudience(context.Background(), ConjunctionSpec(es(), nil).DemoFilter(), []interest.ID{1, 2})
	if got := rpcs.n.Load() - before; got != shards {
		t.Fatalf("ConditionalAudience cost %d shard RPCs, want one per shard (%d)", got, shards)
	}
}

// rawReach fetches /reachestimate without the retrying client.
func rawReach(t *testing.T, base string, spec TargetingSpec) (int, []byte) {
	t.Helper()
	u := base + "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" +
		string(marshalJSON(spec))
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func fetchReachBody(t *testing.T, base string, spec TargetingSpec) []byte {
	t.Helper()
	status, body := rawReach(t, base, spec)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	return body
}

// TestClientRetriesAdmission429 is the satellite bugfix's regression test:
// the serving tier's admission 429 (body code 429, type AdmissionThrottled —
// NOT FB error 17) must be retried, sleeping exactly the advertised
// Retry-After seconds.
func TestClientRetriesAdmission429(t *testing.T) {
	m := testModel(t)
	real, err := NewServer(ServerConfig{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	throttles := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if throttles > 0 {
			throttles--
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": {"message": "Too many requests", "type": "AdmissionThrottled", "code": 429, "retry_after_seconds": 3}}`))
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var slept []time.Duration
	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 4, RetryBase: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reach, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil))
	if err != nil {
		t.Fatalf("client treated the admission 429 as permanent: %v", err)
	}
	if reach <= 0 {
		t.Fatalf("reach %d", reach)
	}
	if len(slept) != 2 || slept[0] != 3*time.Second || slept[1] != 3*time.Second {
		t.Fatalf("client slept %v, want two 3s waits honoring Retry-After", slept)
	}
}

// TestClientBacksOff429WithoutRetryAfter: a 429 with no Retry-After header
// falls back to the exponential schedule.
func TestClientBacksOff429WithoutRetryAfter(t *testing.T) {
	throttles := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if throttles > 0 {
			throttles--
			http.Error(w, `{"error": {"message": "slow down", "type": "AdmissionThrottled", "code": 429}}`,
				http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"data": {"users": 123, "estimate_ready": true}}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 4, RetryBase: 10 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil)); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff %v, want %v", slept, want)
	}
}

// TestClientSurvivesAdmissionEndToEnd drives the real admission middleware
// with a shared fake clock: the client's Sleep advances the admission
// tier's time, so honoring the advertised Retry-After is exactly what makes
// the retry admissible.
func TestClientSurvivesAdmissionEndToEnd(t *testing.T) {
	m := testModel(t)
	api, err := NewServer(ServerConfig{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Unix(1800000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	admission := serving.NewAdmission(serving.AdmissionConfig{Rate: 0.5, Burst: 1, Now: clock}, api)
	srv := httptest.NewServer(admission)
	defer srv.Close()

	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 3, RetryBase: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 1: the first request drains the bucket, the second is
	// admission-throttled and must succeed by sleeping the advertised wait.
	spec := ConjunctionSpec(es(), nil)
	for i := 0; i < 2; i++ {
		if _, err := c.ReachEstimate(context.Background(), spec); err != nil {
			t.Fatalf("request %d failed through admission control: %v", i, err)
		}
	}
	st := admission.Stats()
	if st.Rejected == 0 {
		t.Fatal("the second request was never throttled — the test proved nothing")
	}
	if st.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", st.Admitted)
	}
}
