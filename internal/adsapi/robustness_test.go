package adsapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// TestAdmissionCostPricing pins AdmissionCost's contract: a request the
// handler will reject cheaply (missing/malformed/unknown-ID spec) is priced
// at the 1-token floor, and a valid spec is priced at its SpecCost.
func TestAdmissionCostPricing(t *testing.T) {
	price := func(query string) float64 {
		u := "/" + APIVersion + "/act_1/reachestimate"
		if query != "" {
			u += "?targeting_spec=" + url.QueryEscape(query)
		}
		return AdmissionCost(httptest.NewRequest(http.MethodGet, u, nil))
	}
	if got := price(""); got != 1 {
		t.Fatalf("missing spec priced %v, want the 1-token floor", got)
	}
	if got := price("{not json"); got != 1 {
		t.Fatalf("malformed spec priced %v, want the 1-token floor", got)
	}
	// A spec that parses but cannot convert to clauses (bad FB interest ID)
	// dies in the handler's 400 path — floor too.
	bad := `{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"abc","name":"x"}]}]}`
	if got := price(bad); got != 1 {
		t.Fatalf("unconvertible spec priced %v, want the 1-token floor", got)
	}
	// A valid conjunction is priced at its kernel work: 1 base + 1 country
	// term + 3 singleton-clause row passes.
	spec := ConjunctionSpec(es(), []interest.ID{1, 2, 3})
	if got := price(string(marshalJSON(spec))); got != 5 {
		t.Fatalf("3-interest conjunction priced %v, want 5", got)
	}
}

// panicBackend serves catalog/population from a real backend but panics with
// a configured CanceledError on every share query — the shape a deadline
// blowing mid-gather produces.
type panicBackend struct {
	serving.ReachBackend
	err error
}

func (b *panicBackend) DemoShare(context.Context, population.DemoFilter) float64 {
	panic(&serving.CanceledError{Err: b.err})
}
func (b *panicBackend) UnionShare(context.Context, [][]interest.ID) float64 {
	panic(&serving.CanceledError{Err: b.err})
}
func (b *panicBackend) ReachShares(context.Context, population.DemoFilter, [][]interest.ID) (float64, float64) {
	panic(&serving.CanceledError{Err: b.err})
}
func (b *panicBackend) ConditionalAudience(context.Context, population.DemoFilter, []interest.ID) float64 {
	panic(&serving.CanceledError{Err: b.err})
}

// TestServerMapsCanceledPanics: the HTTP tier distinguishes the two ways a
// request dies mid-estimate — an expired deadline is the caller's budget
// running out (504), a bare cancel is the caller leaving (503). Both carry
// the FB error envelope.
func TestServerMapsCanceledPanics(t *testing.T) {
	model := testModel(t)
	local, err := serving.NewLocalBackend(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cause   error
		status  int
		message string
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout,
			"Request deadline exceeded before the estimate completed"},
		{"cancel", context.Canceled, http.StatusServiceUnavailable,
			"Request canceled before the estimate completed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(ServerConfig{Backend: &panicBackend{ReachBackend: local, err: tc.cause}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			status, body := rawReach(t, ts.URL, ConjunctionSpec(es(), []interest.ID{1}))
			if status != tc.status {
				t.Fatalf("HTTP %d, want %d (%s)", status, tc.status, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("body %s is not an error envelope (%v)", body, err)
			}
			if env.Error.Code != CodeServiceUnavailable || env.Error.Type != "ApiUnknownException" {
				t.Fatalf("error envelope %+v", env.Error)
			}
			if env.Error.Message != tc.message {
				t.Fatalf("message %q, want %q", env.Error.Message, tc.message)
			}
		})
	}
}

// TestProxySessionGoroutineCleanup is the end-to-end leak regression: a full
// serving session — shard servers, health-probing proxy, Marketing API tier,
// client traffic — torn down in order returns the process to its goroutine
// baseline. Guards the probe loop, the scatter workers, and the per-request
// context plumbing against leaked goroutines.
func TestProxySessionGoroutineCleanup(t *testing.T) {
	cfg := worldcfg.Default()
	cfg.Population.Seed = 3
	cfg.Population.CatalogSize = 500
	cfg.Population.Population = 100_001
	cfg.Population.ActivityGrid = 32

	urls := make([]string, 2)
	for i := range urls {
		b, info, err := serving.NewShardBackend(cfg, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := serving.NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(shard)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}

	// Keep-alives on either hop would park idle-connection goroutines past
	// the teardown and fail the baseline comparison.
	noKeepAlive := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	baseline := runtime.NumGoroutine()

	proxy, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{
		URLs: urls, ProbeInterval: 5 * time.Millisecond, Client: noKeepAlive,
	})
	if err != nil {
		t.Fatal(err)
	}
	healthCtx, stopHealth := context.WithCancel(context.Background())
	proxy.StartHealth(healthCtx)

	api, err := NewServer(ServerConfig{Backend: proxy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)

	spec := ConjunctionSpec(es(), []interest.ID{1, 2})
	u := ts.URL + "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" +
		url.QueryEscape(string(marshalJSON(spec)))
	for i := 0; i < 3; i++ {
		resp, err := noKeepAlive.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if st := proxy.HealthStats(); st.Up != 2 {
		t.Fatalf("topology not healthy mid-session: %+v", st)
	}

	// Teardown in dependency order; every goroutine above the pre-proxy
	// baseline must drain.
	stopHealth()
	ts.Close()
	noKeepAlive.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive 5s after teardown, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
