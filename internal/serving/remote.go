// Process-sharded serving: the network topology behind `fbadsd -shard-of` /
// `-proxy`. A ShardServer exposes one shard's reach primitives over a small
// HTTP RPC — one binary /shard/v1/shares call per shard per query (wire.go),
// JSON for the control endpoints; a ProxyBackend is the shard fold
// (sharded.go) over those RPCs across N shard processes — each optionally
// replicated — with per-RPC timeouts, bounded jittered retry, hedged
// requests, health-checked degradation (health.go) and per-replica circuit
// breakers (breaker.go).
//
// # Replication and hedging
//
// Each shard position can be served by a replica SET (ProxyConfig.Shards,
// `fbadsd -proxy "u0a|u0b,u1"`). Replicas of a shard are byte-identical
// worlds by construction — shard models are share-calibrated pure functions
// of (worldcfg.Config, range), and the per-replica health probes verify the
// full identity (index/count/range/population/catalog) against the proxy's
// own config — so routing between them never changes an answer. One loop,
// raceReplicas, routes every RPC: the preferred (lowest-index) live replica
// starts it, a failure hands the SAME request to the next live replica, and
// with HedgeAfter armed the next live replica also joins once the hedge
// delay elapses without an answer — first success wins and the losers'
// contexts are canceled (their breakers see OnCanceled, not OnFailure).
// Sequential failover is that loop with the hedge delay at ∞: attempts run
// one at a time on the caller's goroutine. Degradation policies engage only
// when EVERY replica of a shard is down: losing one replica of a replicated
// shard keeps answers bit-identical and un-degraded.
//
// # Deadline propagation
//
// Every proxy query threads the caller's context end to end: retry backoff
// sleeps select on it, each RPC attempt runs under min(caller deadline,
// per-RPC timeout), and the remaining budget crosses the wire in an
// X-Deadline-Ms header so a ShardServer abandons work whose caller has
// already given up (responding 504, which the proxy treats as permanent).
//
// # Exactness
//
// The proxy and the in-process ShardedBackend are the same fold
// (shardFold.gather): per factor, weight_s · share_s summed in shard-index
// order, with the same single-shard short-circuit. A shard process builds
// its world with the same range arithmetic and share-based calibration
// (shardRanges, newShardWorld) and evaluates a request with the same
// evalShares, so its shares are bit-identical to the in-process shard's;
// and the wire carries each share as its raw 8 IEEE-754 bytes, so the hop
// cannot change a bit. Healthy-topology proxy answers are
// therefore byte-identical to ShardedBackend at the same shard split —
// property-gated in remote_test.go over replicas {1,2} × shards {1,2,3} ×
// seeds {0,1,42}, hedging armed.
package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// DeadlineHeader carries the caller's remaining deadline budget, in whole
// milliseconds, on every shard RPC the proxy issues under a deadline. A
// ShardServer honors it by serving the request under that timeout and
// answering 504 once it expires — cooperative cancellation across the
// process boundary, where the caller's context cannot reach.
const DeadlineHeader = "X-Deadline-Ms"

// Shard RPC paths (all rooted under /shard/v1).
const (
	shardPathHealth = "/shard/v1/health"
	shardPathShares = "/shard/v1/shares"
	shardPathStats  = "/shard/v1/stats"
	shardPathWarm   = "/shard/v1/warmrows"
)

// ShardHealthInfo is the health endpoint's payload: enough identity for the
// proxy to verify the shard serves the same world at the same split before
// folding its shares in (ProbeNow rejects mismatches as down).
type ShardHealthInfo struct {
	Status string `json:"status"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Lo     int64  `json:"lo"`
	Hi     int64  `json:"hi"`
	// Population is the shard-local model population (Hi - Lo).
	Population int64 `json:"population"`
	// TotalPopulation is the whole topology's user base.
	TotalPopulation int64 `json:"total_population"`
	CatalogSize     int   `json:"catalog_size"`
	// Wire is the data-path wire format version (shardWireVersion); the
	// proxy refuses a replica that speaks another.
	Wire int `json:"wire"`
}

type shardErrorBody struct {
	Error struct {
		Message string `json:"message"`
	} `json:"error"`
}

// ShardInfo identifies a shard inside its topology.
type ShardInfo struct {
	// Index is the shard's position in [0, Count).
	Index int
	// Count is the topology's shard count.
	Count int
	// Range is the user-ID range the shard owns.
	Range ShardRange
	// TotalPopulation is the whole topology's user base.
	TotalPopulation int64
}

// NewShardBackend builds the world of shard index of count from cfg — the
// identical range arithmetic and model construction ShardedBackend applies
// in-process, packaged for one shard per process (fbadsd -shard-of). The
// returned LocalBackend's shares are bit-identical to in-process shard
// index's — and to every other replica built from the same (cfg, index,
// count), which is what makes proxy-side replica failover exact.
func NewShardBackend(cfg worldcfg.Config, index, count int) (*LocalBackend, ShardInfo, error) {
	pop := cfg.Population.Population
	ranges, err := shardRanges(pop, count)
	if err != nil {
		return nil, ShardInfo{}, err
	}
	if index < 0 || index >= count {
		return nil, ShardInfo{}, fmt.Errorf("serving: shard index %d outside [0, %d)", index, count)
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, ShardInfo{}, err
	}
	b, err := newShardWorld(cfg, cat, index, ranges[index])
	if err != nil {
		return nil, ShardInfo{}, err
	}
	return b, ShardInfo{Index: index, Count: count, Range: ranges[index], TotalPopulation: pop}, nil
}

// ShardServer serves one shard's reach primitives over the shard RPC:
// the per-process counterpart of a ShardedBackend shard. It is an
// http.Handler; fbadsd mounts it on -shard-listen. The RPC surface trusts
// its caller (the proxy validates specs upstream) but still rejects
// malformed bodies and unknown interest IDs with 400s so a stray request
// cannot crash the shard.
type ShardServer struct {
	backend *LocalBackend
	info    ShardInfo
	mux     *http.ServeMux
}

// NewShardServer wraps a shard backend (NewShardBackend) as its RPC handler.
func NewShardServer(b *LocalBackend, info ShardInfo) (*ShardServer, error) {
	if b == nil {
		return nil, errors.New("serving: ShardServer needs a backend")
	}
	if info.Count < 1 || info.Index < 0 || info.Index >= info.Count {
		return nil, fmt.Errorf("serving: bad shard identity %d/%d", info.Index, info.Count)
	}
	s := &ShardServer{backend: b, info: info}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+shardPathHealth, s.handleHealth)
	mux.HandleFunc("POST "+shardPathShares, s.handleShares)
	mux.HandleFunc("GET "+shardPathStats, s.handleStats)
	mux.HandleFunc("POST "+shardPathWarm, s.handleWarmRows)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler. A DeadlineHeader on the request scopes
// its context to the forwarded budget, so the share handlers can abandon
// work whose caller has stopped waiting (answering 504, see
// deadlineExpired).
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if raw := r.Header.Get(DeadlineHeader); raw != "" {
		d, ok := parseDeadlineMs(raw)
		if !ok {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s header %q", DeadlineHeader, raw))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// parseDeadlineMs reads a DeadlineHeader value: a positive count of whole
// milliseconds. Non-numeric and non-positive values are rejected (ok is
// false). A budget too long for a time.Duration saturates at the largest
// one instead of wrapping, as ParseRetryAfter does: unchecked,
// "9223372036855" ms would overflow to a negative deadline (an immediate
// 504) and "18446744073710" to a 448µs one.
func parseDeadlineMs(raw string) (time.Duration, bool) {
	// Past the int64 range ParseInt returns ±MaxInt64 with ErrRange; the
	// positive case then saturates like any other over-long budget.
	ms, err := strconv.ParseInt(raw, 10, 64)
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || ms <= 0 {
		return 0, false
	}
	if ms > int64(math.MaxInt64/time.Millisecond) {
		return math.MaxInt64, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// deadlineExpired reports — and answers 504 for — a request whose context
// is already dead when its handler reaches the compute step: the caller
// stopped waiting (forwarded deadline expired or connection dropped), so
// evaluating the share is pure waste. The proxy treats the 504 as a
// permanent RPC failure (no retry).
func (s *ShardServer) deadlineExpired(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		s.writeError(w, http.StatusGatewayTimeout, "deadline exhausted before compute: "+err.Error())
		return true
	}
	return false
}

func (s *ShardServer) writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

func (s *ShardServer) writeError(w http.ResponseWriter, status int, msg string) {
	var body shardErrorBody
	body.Error.Message = msg
	buf, _ := json.Marshal(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, ShardHealthInfo{
		Status:          "ok",
		Shard:           s.info.Index,
		Shards:          s.info.Count,
		Lo:              s.info.Range.Lo,
		Hi:              s.info.Range.Hi,
		Population:      s.backend.Population(),
		TotalPopulation: s.info.TotalPopulation,
		CatalogSize:     s.backend.Catalog().Len(),
		Wire:            shardWireVersion,
	})
}

// handleShares serves the data path: it strictly decodes a shares request
// (wire.go, at most maxSharesBody bytes), checks every interest ID against
// the shard's catalog, and answers the requested factors' raw float64 bits.
func (s *ShardServer) handleShares(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSharesBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	q, err := parseSharesRequest(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed shares request: "+err.Error())
		return
	}
	for _, clause := range q.clauses {
		if !s.knownInterests(w, clause) {
			return
		}
	}
	if !s.knownInterests(w, q.ids) || s.deadlineExpired(w, r) {
		return
	}
	v := evalShares(s.backend.engine, &q)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(appendShares(make([]byte, 0, 8*numFactors), q.mask, &v))
}

// knownInterests reports — and answers 400 for the first miss — whether
// every ID is in the shard's catalog.
func (s *ShardServer) knownInterests(w http.ResponseWriter, ids []interest.ID) bool {
	cat := s.backend.Catalog()
	for _, id := range ids {
		if _, err := cat.Get(id); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown interest %d", id))
			return false
		}
	}
	return true
}

func (s *ShardServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.backend.AudienceStats(r.Context()))
}

func (s *ShardServer) handleWarmRows(w http.ResponseWriter, r *http.Request) {
	if s.deadlineExpired(w, r) {
		return
	}
	s.backend.WarmRows(r.Context())
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// ParseShardTopology parses the `-proxy` flag's topology spec: shards are
// comma-separated in shard-index order, and each shard is a |-separated
// replica URL set — "u0a|u0b,u1" is shard 0 behind two replicas and shard 1
// behind one.
func ParseShardTopology(s string) ([][]string, error) {
	var shards [][]string
	for _, shard := range strings.Split(s, ",") {
		var reps []string
		for _, u := range strings.Split(shard, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				return nil, fmt.Errorf("serving: empty replica URL in topology %q", s)
			}
			reps = append(reps, u)
		}
		shards = append(shards, reps)
	}
	return shards, nil
}

// ProxyConfig configures a ProxyBackend.
type ProxyConfig struct {
	// URLs are the shard base URLs in shard-index order for the common
	// one-replica-per-shard topology: URLs[i] must serve shard i of
	// len(URLs) (ProbeNow verifies this and marks mismatches down). Set
	// exactly one of URLs and Shards.
	URLs []string
	// Shards is the replicated topology: Shards[i] lists the base URLs of
	// the replicas serving shard i of len(Shards), preference order first.
	// All replicas of a shard must serve the byte-identical shard world
	// (same index/count/range/population/catalog — ProbeNow verifies each
	// replica independently against the proxy's config).
	Shards [][]string
	// Timeout bounds each shard RPC attempt (default 10s).
	Timeout time.Duration
	// MaxRetries bounds per-RPC retries after the first attempt, on network
	// errors, 5xx and 429 (default 2).
	MaxRetries int
	// RetryBase is the initial retry backoff, doubled per retry and
	// stretched by Jitter (default 50ms).
	RetryBase time.Duration
	// RetryBudget caps the TOTAL retries one query may spend across its
	// whole shard fan-out, so a brownout cannot amplify incoming load by
	// shards × MaxRetries. Exhaustion fails the RPC that wanted the retry
	// (tallied as HealthStats.RetryBudgetExhausted) and counts as that
	// shard's failure. 0 defaults to 2 × MaxRetries; negative disables the
	// cap.
	RetryBudget int
	// HedgeAfter is the hedge delay: a shard RPC still unanswered after it
	// is duplicated to the shard's next live replica, first success wins,
	// losers are canceled. Zero (the default) disarms hedging — a delay of
	// ∞ — so replicas give sequential failover only: each attempt runs on
	// the caller's goroutine and a failure moves on to the next replica.
	// The hedge timer sleeps through Sleep, so tests drive it
	// deterministically.
	HedgeAfter time.Duration
	// Jitter supplies the backoff jitter fraction in [0, 1) for a given
	// (shard, replica, attempt); the retry wait is stretched to
	// wait · (1 + jitter/2), i.e. [wait, 1.5·wait), so concurrent queries
	// retrying against the same recovering shard decorrelate instead of
	// arriving in synchronized bursts. Nil uses a deterministic source
	// derived from the world seed; tests inject a constant.
	Jitter func(shard, replica, attempt int) float64
	// Policy selects the degradation behaviour when whole shards (every
	// replica) are down (default PolicyFail).
	Policy Policy
	// ProbeInterval is StartHealth's probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// Breaker configures the per-replica circuit breakers (breaker.go). The
	// zero value takes the defaults: trip open after 5 consecutive
	// data-RPC failures, fast-fail for 5s, then one half-open trial. Its
	// Now falls back to ProxyConfig.Now.
	Breaker BreakerConfig
	// Client overrides the HTTP client — tests inject flaky transports
	// through it. Nil uses a plain client (per-request contexts carry the
	// timeouts).
	Client *http.Client
	// Now supplies time for health bookkeeping; defaults to time.Now.
	Now func() time.Time
	// Sleep is the retry-backoff and hedge-delay sleep, swappable for
	// tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// ProxyBackend implements ReachBackend over N shard PROCESSES: the shard
// fold ShardedBackend runs, over remote shards. Every share query sends one
// shard RPC to each live shard (per-RPC timeout, bounded jittered retry
// under a shared per-query budget) and folds the answers weight_s · share_s
// in shard-index order — with a healthy topology, byte-identical to
// ShardedBackend at the same shard split (see the package comment's
// exactness argument).
//
// A shard may be served by several replicas (ProxyConfig.Shards). Each
// replica carries its own health state and circuit breaker; raceReplicas
// sends the RPC to the preferred live replica with exact failover — and,
// when HedgeAfter is armed, a hedged duplicate — to the next (see the
// package comment).
//
// Failure behaviour is governed by the health subsystem (health.go):
// replicas marked down by probes are skipped, RPC failures mark replicas
// down, and the configured Policy decides — only once a shard has NO live
// replica — between refusing (PolicyFail panics with *UnavailableError →
// HTTP 503) and renormalizing over the live shards (PolicyRenormalize,
// responses stamped degraded).
type ProxyBackend struct {
	shardFold

	timeout       time.Duration
	maxRetries    int
	retryBase     time.Duration
	hedgeAfter    time.Duration
	jitter        func(shard, replica, attempt int) float64
	probeInterval time.Duration
	probeTimeout  time.Duration
	client        *http.Client
	sleep         func(ctx context.Context, d time.Duration) error

	breakers [][]*breaker

	hedged          atomic.Int64
	hedgeWins       atomic.Int64
	failovers       atomic.Int64
	budgetExhausted atomic.Int64
}

// NewProxyBackend builds the proxy's local view of the world described by
// cfg: the interest catalog is generated locally (bit-identical to every
// shard's — catalog generation is a pure function of the config), shard
// ranges and weights come from the same integer range arithmetic
// ShardedBackend uses, and all reach arithmetic is the shard fold over
// remote shards. No shard is contacted during construction; replicas start
// optimistically up and the first probe or scatter corrects that.
func NewProxyBackend(cfg worldcfg.Config, pc ProxyConfig) (*ProxyBackend, error) {
	if len(pc.URLs) > 0 && len(pc.Shards) > 0 {
		return nil, errors.New("serving: set ProxyConfig.URLs or ProxyConfig.Shards, not both")
	}
	topo := pc.Shards
	if len(topo) == 0 {
		for _, u := range pc.URLs {
			topo = append(topo, []string{u})
		}
	}
	pop := cfg.Population.Population
	ranges, err := shardRanges(pop, len(topo))
	if err != nil {
		return nil, err
	}
	if pc.Timeout <= 0 {
		pc.Timeout = 10 * time.Second
	}
	if pc.MaxRetries < 0 {
		return nil, fmt.Errorf("serving: negative MaxRetries %d", pc.MaxRetries)
	}
	if pc.MaxRetries == 0 {
		pc.MaxRetries = 2
	}
	if pc.RetryBase <= 0 {
		pc.RetryBase = 50 * time.Millisecond
	}
	if pc.RetryBudget == 0 {
		pc.RetryBudget = 2 * pc.MaxRetries
	}
	if pc.HedgeAfter < 0 {
		return nil, fmt.Errorf("serving: negative HedgeAfter %v", pc.HedgeAfter)
	}
	if pc.Jitter == nil {
		pc.Jitter = defaultJitter(cfg.Population.Seed)
	}
	if pc.ProbeInterval <= 0 {
		pc.ProbeInterval = time.Second
	}
	if pc.ProbeTimeout <= 0 {
		pc.ProbeTimeout = 2 * time.Second
	}
	if pc.Client == nil {
		pc.Client = &http.Client{}
	}
	if pc.Now == nil {
		pc.Now = time.Now
	}
	if pc.Sleep == nil {
		pc.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	if pc.Breaker.Now == nil {
		pc.Breaker.Now = pc.Now
	}
	urls := make([][]string, len(topo))
	breakers := make([][]*breaker, len(topo))
	for i, reps := range topo {
		if len(reps) == 0 {
			return nil, fmt.Errorf("serving: shard %d has no replica URLs", i)
		}
		urls[i] = make([]string, len(reps))
		breakers[i] = make([]*breaker, len(reps))
		for r, u := range reps {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u == "" {
				return nil, fmt.Errorf("serving: shard %d replica %d has an empty URL", i, r)
			}
			urls[i][r] = u
			breakers[i][r] = newBreaker(pc.Breaker)
		}
	}
	p := &ProxyBackend{
		timeout:       pc.Timeout,
		maxRetries:    pc.MaxRetries,
		retryBase:     pc.RetryBase,
		hedgeAfter:    pc.HedgeAfter,
		jitter:        pc.Jitter,
		probeInterval: pc.ProbeInterval,
		probeTimeout:  pc.ProbeTimeout,
		client:        pc.Client,
		sleep:         pc.Sleep,
		breakers:      breakers,
	}
	shards := make([]shardCaller, len(topo))
	for i := range shards {
		shards[i] = &remoteShard{p: p, shard: i}
	}
	p.shardFold = newShardFold(cat, pop, ranges, shards)
	p.health = newHealthMonitor(urls, pc.Now)
	p.urls = urls
	p.policy = pc.Policy
	p.retryBudget = pc.RetryBudget
	return p, nil
}

// defaultJitter derives a deterministic jitter stream from the world seed:
// draw k for (shard, replica, attempt) comes from the derived stream
// "<shard>/<replica>/<attempt>/<k>" of a jitter-dedicated parent. The parent
// Rand is only ever READ (Derive hashes its state without advancing it), so
// concurrent retries may draw without a lock.
func defaultJitter(seed uint64) func(shard, replica, attempt int) float64 {
	parent := rng.New(seed).Derive("proxy-backoff-jitter")
	var seq atomic.Uint64
	return func(shard, replica, attempt int) float64 {
		k := seq.Add(1)
		return parent.Derive(fmt.Sprintf("%d/%d/%d/%d", shard, replica, attempt, k)).Float64()
	}
}

// remoteShard is the proxy's shard caller: one shard's replica set, reached
// over the shard RPC.
type remoteShard struct {
	p     *ProxyBackend
	shard int
}

func (s *remoteShard) shares(ctx context.Context, q *sharesRequest, body []byte, bud *queryBudget) (shares, error) {
	data, err := s.p.raceReplicas(ctx, s.shard, http.MethodPost, shardPathShares, body, bud)
	if err != nil {
		return shares{}, err
	}
	v, err := parseShares(q.mask, data)
	if err != nil {
		return v, fmt.Errorf("serving: shard %d %s: bad response: %w", s.shard, shardPathShares, err)
	}
	return v, nil
}

func (s *remoteShard) stats(ctx context.Context, bud *queryBudget) audience.Stats {
	var st audience.Stats
	data, err := s.p.raceReplicas(ctx, s.shard, http.MethodGet, shardPathStats, nil, bud)
	if err != nil || json.Unmarshal(data, &st) != nil {
		return audience.Stats{}
	}
	return st
}

// WarmRows warms every replica of the shard, not just the preferred one: a
// hedge or failover should land on warm rows too.
func (s *remoteShard) WarmRows(ctx context.Context) {
	n := len(s.p.urls[s.shard])
	_ = parallel.ForEach(ctx, n, n, func(r int) error {
		_, _ = s.p.callReplica(ctx, s.shard, r, http.MethodPost, shardPathWarm, nil, nil)
		return nil
	})
}

// queryBudget is one query's shared retry allowance across its whole shard
// fan-out; a nil budget is uncapped.
type queryBudget struct{ remaining atomic.Int64 }

// newQueryBudget returns a budget of n retries, or nil (uncapped) for n <= 0.
func newQueryBudget(n int) *queryBudget {
	if n <= 0 {
		return nil
	}
	b := &queryBudget{}
	b.remaining.Store(int64(n))
	return b
}

// take consumes one retry from the budget.
func (b *queryBudget) take() bool {
	if b == nil {
		return true
	}
	return b.remaining.Add(-1) >= 0
}

// replicaOutcome is one replica attempt's result; order is its launch order
// (0 is the preferred replica).
type replicaOutcome struct {
	order int
	data  []byte
	err   error
}

// hedgeRace is what an armed hedge adds to raceReplicas: the race context
// that cancels the losers, the attempts' outcomes and the hedge timer.
type hedgeRace struct {
	ctx     context.Context
	cancel  context.CancelFunc
	results chan replicaOutcome // one slot per candidate: losers deliver and exit without a listener
	timer   chan struct{}
}

// newHedgeRace returns nil — a hedge delay of ∞ — unless hedging is armed
// and the shard has a second live replica to hedge to. Otherwise it starts
// the hedge timer: a tick each time the hedge delay elapses after the
// previous tick was taken, until every candidate could have joined.
func (p *ProxyBackend) newHedgeRace(ctx context.Context, candidates int) *hedgeRace {
	if p.hedgeAfter <= 0 || candidates < 2 {
		return nil
	}
	h := &hedgeRace{results: make(chan replicaOutcome, candidates), timer: make(chan struct{})}
	h.ctx, h.cancel = context.WithCancel(ctx)
	go func() {
		for n := 1; n < candidates && p.sleep(h.ctx, p.hedgeAfter) == nil; n++ {
			select {
			case h.timer <- struct{}{}:
			case <-h.ctx.Done():
				return
			}
		}
	}()
	return h
}

// raceReplicas is the proxy's one replica-routing loop (see the package
// comment): it performs one shard RPC against the shard's live replicas and
// returns the winning response body. Replicas being byte-identical worlds
// is what makes "first success wins" sound: the bytes cannot depend on the
// winner. All attempts debit the same shared retry budget, so hedging cannot
// multiply a brownout's retry load. A shard-level error means NO usable
// replica produced an answer.
//
// With the hedge delay at ∞ (hedging disarmed, or one live replica) each
// attempt runs to completion on the caller's goroutine before the next
// starts — no goroutine, context or channel per RPC — and an escalation
// after a failure tallies Failovers; with hedging armed it tallies Hedged.
func (p *ProxyBackend) raceReplicas(ctx context.Context, shard int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	candidates := p.health.liveReplicas(shard)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("serving: shard %d: all %d replica(s) marked down", shard, len(p.urls[shard]))
	}
	h := p.newHedgeRace(ctx, len(candidates))
	escalations := &p.failovers
	if h != nil {
		defer h.cancel()
		escalations = &p.hedged
	}
	launched := 0
	// launch starts the next candidate. Unhedged it runs here and its
	// outcome is returned (done); hedged it joins the race and its outcome
	// arrives on h.results.
	launch := func() (res replicaOutcome, done bool) {
		res.order = launched
		launched++
		rep := candidates[res.order]
		if h == nil {
			res.data, res.err = p.callReplica(ctx, shard, rep, method, path, body, bud)
			return res, true
		}
		go func(order int) {
			data, err := p.callReplica(h.ctx, shard, rep, method, path, body, bud)
			h.results <- replicaOutcome{order: order, data: data, err: err}
		}(res.order)
		return res, false
	}
	res, done := launch()
	for failed := 0; ; {
		if !done {
			select {
			case <-h.timer:
				if launched < len(candidates) {
					p.hedged.Add(1)
					launch()
				}
				continue
			case res = <-h.results:
			}
		}
		if res.err == nil {
			if h != nil && res.order > 0 {
				p.hedgeWins.Add(1)
			}
			return res.data, nil
		}
		failed++
		if ctx.Err() != nil {
			// The caller is gone: the remaining replicas would only see the
			// same dead context.
			return nil, res.err
		}
		if launched < len(candidates) {
			// A failed attempt escalates immediately — waiting out a hedge
			// delay would only add latency to a known failure.
			escalations.Add(1)
			res, done = launch()
		} else if failed == launched {
			return nil, fmt.Errorf("serving: shard %d %s: every live replica failed: %w", shard, path, res.err)
		}
	}
}

// callReplica performs one replica RPC under the replica's circuit breaker.
// The whole retrying call is one breaker unit: an open breaker fails it in
// microseconds with *ErrBreakerOpen (no network); otherwise its final
// outcome feeds OnSuccess/OnFailure — unless the passed ctx ended (caller
// gone, or this attempt lost a hedge race), which says nothing about the
// replica and registers as the neutral OnCanceled. A genuine failure also
// marks the replica down in the health monitor; only a probe resurrects it.
func (p *ProxyBackend) callReplica(ctx context.Context, shard, replica int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	br := p.breakers[shard][replica]
	if err := br.Allow(); err != nil {
		return nil, err
	}
	data, err := p.callRetrying(ctx, shard, replica, method, path, body, bud)
	switch {
	case err == nil:
		br.OnSuccess()
	case ctx.Err() != nil:
		br.OnCanceled()
	default:
		br.OnFailure()
		p.health.markDown(shard, replica, err)
	}
	return data, err
}

// callRetrying is callReplica's retry loop, below the breaker. Network
// errors, 5xx and 429 retry up to MaxRetries, each retry also debiting the
// query's shared budget; the backoff doubles per attempt and is stretched
// into [wait, 1.5·wait) by the jitter source — UNLESS the shard advertised
// a Retry-After (the concurrency gate's load-shed 503 and the admission
// tier's 429 both do), which is honored verbatim. Either wait is capped by
// the remaining ctx budget: sleeping past the caller's deadline is pure
// waste. 504 is permanent — the shard abandoned the request because the
// forwarded deadline expired — as are other 4xx.
func (p *ProxyBackend) callRetrying(ctx context.Context, shard, replica int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	url := p.urls[shard][replica] + path
	var lastErr error
	var serverWait time.Duration // Retry-After from the last failed attempt
	for attempt := 0; attempt <= p.maxRetries; attempt++ {
		if attempt > 0 {
			if !bud.take() {
				p.budgetExhausted.Add(1)
				return nil, fmt.Errorf("serving: shard %d %s: query retry budget exhausted: %w", shard, path, lastErr)
			}
			wait := p.backoff(shard, replica, attempt)
			if serverWait > 0 {
				wait = serverWait
			}
			if d, ok := ctx.Deadline(); ok {
				if rem := time.Until(d); rem < wait {
					wait = rem
				}
			}
			if err := p.sleep(ctx, wait); err != nil {
				return nil, err
			}
		}
		data, status, header, err := p.roundTrip(ctx, method, url, body)
		if err != nil {
			if ctx.Err() != nil {
				// The caller is gone: retrying can only waste shard work.
				return nil, err
			}
			lastErr = err
			serverWait = 0
			continue
		}
		switch {
		case status == http.StatusGatewayTimeout:
			// The shard honored the forwarded deadline and gave up.
			return nil, fmt.Errorf("serving: shard %d %s: HTTP %d: deadline exhausted: %s",
				shard, path, status, truncate(data))
		case status >= 500 || status == http.StatusTooManyRequests:
			lastErr = fmt.Errorf("HTTP %d: %s", status, truncate(data))
			serverWait = ParseRetryAfter(header.Get("Retry-After"))
			continue
		case status != http.StatusOK:
			var eb shardErrorBody
			if json.Unmarshal(data, &eb) == nil && eb.Error.Message != "" {
				return nil, fmt.Errorf("serving: shard %d %s: HTTP %d: %s", shard, path, status, eb.Error.Message)
			}
			return nil, fmt.Errorf("serving: shard %d %s: HTTP %d: %s", shard, path, status, truncate(data))
		}
		return data, nil
	}
	return nil, fmt.Errorf("serving: shard %d %s: retries exhausted: %w", shard, path, lastErr)
}

// backoff is the jittered exponential schedule for retry `attempt` (>= 1):
// RetryBase · 2^(attempt-1), stretched by the jitter fraction into
// [wait, 1.5·wait).
func (p *ProxyBackend) backoff(shard, replica, attempt int) time.Duration {
	wait := p.retryBase << (attempt - 1)
	j := p.jitter(shard, replica, attempt)
	if j < 0 || j >= 1 {
		j = 0
	}
	return wait + time.Duration(j*float64(wait)/2)
}

// ParseRetryAfter reads a delay-seconds Retry-After value (the only form the
// serving tiers emit — see Gate and Admission); the proxy's shard RPCs and
// the adsapi client both honor it through this one parser. Unparseable or
// negative values mean "no advice" (0). A delay too long for a
// time.Duration saturates at the largest one instead of wrapping: unchecked,
// "18446744074" seconds would overflow to a 290ms wait and "9223372037" to
// a negative one.
func ParseRetryAfter(h string) time.Duration {
	// Past the int64 range ParseInt returns ±MaxInt64 with ErrRange; the
	// positive case then saturates like any other over-long delay.
	secs, err := strconv.ParseInt(strings.TrimSpace(h), 10, 64)
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || secs < 0 {
		return 0
	}
	if secs > int64(math.MaxInt64/time.Second) {
		return math.MaxInt64
	}
	return time.Duration(secs) * time.Second
}

// roundTrip performs one HTTP attempt under min(caller deadline, per-RPC
// timeout) — context.WithTimeout never extends an earlier parent deadline —
// and forwards the remaining budget to the shard as the DeadlineHeader.
func (p *ProxyBackend) roundTrip(ctx context.Context, method, url string, body []byte) ([]byte, int, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rdr)
	if err != nil {
		return nil, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if d, ok := rctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, 0, nil, err
	}
	return data, resp.StatusCode, resp.Header, nil
}

func truncate(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
