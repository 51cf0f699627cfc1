package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"nanotarget/internal/core"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/serving"
)

// This file holds the wrappers the benchmark puts around the program's
// public hooks. Untraced, only the load client's tap is present (it times
// each request and fingerprints each answer for the correctness check).
// Traced, every boundary records a span; the request id rides the
// X-Nanobench-Trace header across sockets and a context value inside a
// process.

// answer is one response as the client saw it: the request URL's and body's
// FNV-1a fingerprints, the HTTP status (0 for a transport error) and the
// send-to-body-read latency.
type answer struct {
	URL, Body uint64
	Status    int
	Latency   time.Duration
}

// answerSink collects one round's answers.
type answerSink struct {
	mu      sync.Mutex
	answers []answer
}

func (s *answerSink) add(a answer) {
	s.mu.Lock()
	s.answers = append(s.answers, a)
	s.mu.Unlock()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func urlHash(req *http.Request) uint64 {
	return fnvString(fnvString(fnvString(fnvOffset, req.URL.Path), "?"), req.URL.RawQuery)
}

// clientTap is the load client's transport. It fingerprints and times every
// request into the current sink and, while rec is set, opens the request's
// root span and sends its id downstream.
type clientTap struct {
	base http.RoundTripper
	sink atomic.Pointer[answerSink]
	rec  atomic.Pointer[recorder]
}

func (t *clientTap) RoundTrip(req *http.Request) (*http.Response, error) {
	sink := t.sink.Load()
	uh := urlHash(req)
	rec := t.rec.Load()
	var ref traceRef
	if rec != nil {
		ref = traceRef{Req: rec.id()}
		ref.Span = ref.Req
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, ref.header())
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		if sink != nil {
			sink.add(answer{URL: uh, Latency: time.Since(start)})
		}
		return nil, err
	}
	status := resp.StatusCode
	resp.Body = &tapBody{ReadCloser: resp.Body, hash: fnvOffset, done: func(bh uint64) {
		lat := time.Since(start)
		if sink != nil {
			sink.add(answer{URL: uh, Body: bh, Status: status, Latency: lat})
		}
		if rec != nil {
			end := rec.now()
			rec.add(span{Req: ref.Req, ID: ref.Span, Name: spanClient, Start: end - int64(lat), End: end})
		}
	}}
	return resp, nil
}

// tapBody fingerprints a response body as it is read and reports once, on
// Close.
type tapBody struct {
	io.ReadCloser
	hash uint64
	done func(bodyHash uint64)
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.hash = fnvBytes(b.hash, p[:n])
	return n, err
}

func (b *tapBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.hash)
		b.done = nil
	}
	return err
}

// handlerTransport serves requests in-process through a handler and an
// httptest.ResponseRecorder: the "no socket" path the oracles answer on.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, req)
	return rw.Result(), nil
}

// serveTap wraps an HTTP handler (adsapi.Server or serving.ShardServer):
// a request carrying a trace header gets a span named name under the
// caller's span, and its context carries the new span to the layers below.
type serveTap struct {
	next http.Handler
	rec  *recorder
	name string
}

func (h serveTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, ok := parseRef(r.Header.Get(traceHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	ref := traceRef{Req: parent.Req, Span: h.rec.id()}
	start := h.rec.now()
	h.next.ServeHTTP(w, r.WithContext(withRef(r.Context(), ref)))
	h.rec.add(span{Req: ref.Req, ID: ref.Span, Parent: parent.Span, Name: h.name, Start: start, End: h.rec.now()})
}

// tracedBackend wraps a ReachBackend (adsapi.ServerConfig.Backend): each
// query method called under a traced context records a serving.backend span
// and hands its own span down through the context. Embedding the interface
// keeps the method set to ReachBackend's, so adsapi sees no Degraded or
// HealthStats it would not see without the wrapper.
type tracedBackend struct {
	serving.ReachBackend
	rec *recorder
}

func (b *tracedBackend) begin(ctx context.Context) (context.Context, func()) {
	parent, ok := refFrom(ctx)
	if !ok {
		return ctx, func() {}
	}
	ref := traceRef{Req: parent.Req, Span: b.rec.id()}
	start := b.rec.now()
	return withRef(ctx, ref), func() {
		b.rec.add(span{Req: ref.Req, ID: ref.Span, Parent: parent.Span, Name: spanBackend, Start: start, End: b.rec.now()})
	}
}

func (b *tracedBackend) DemoShare(ctx context.Context, f population.DemoFilter) float64 {
	ctx, end := b.begin(ctx)
	defer end()
	return b.ReachBackend.DemoShare(ctx, f)
}

func (b *tracedBackend) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	ctx, end := b.begin(ctx)
	defer end()
	return b.ReachBackend.UnionShare(ctx, clauses)
}

func (b *tracedBackend) ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	ctx, end := b.begin(ctx)
	defer end()
	return b.ReachBackend.ConditionalAudience(ctx, f, ids)
}

// tracedProxy is tracedBackend over a ProxyBackend, forwarding the two
// optional methods adsapi looks for so it serves exactly what it serves
// without the wrapper.
type tracedProxy struct {
	*tracedBackend
	proxy *serving.ProxyBackend
}

func (p tracedProxy) Degraded() bool                   { return p.proxy.Degraded() }
func (p tracedProxy) HealthStats() serving.HealthStats { return p.proxy.HealthStats() }

// rpcTap is the proxy's transport (serving.ProxyConfig.Client): a data-path
// RPC made under a traced context records a serving.shard_rpc span from
// send to body read and forwards its id to the shard in the trace header.
// Health probes and other untraced calls pass straight through.
type rpcTap struct {
	base   http.RoundTripper
	rec    *recorder
	failed atomic.Int64
}

func (t *rpcTap) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := refFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	ref := traceRef{Req: parent.Req, Span: t.rec.id()}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, ref.header())
	start := t.rec.now()
	record := func(uint64) {
		t.rec.add(span{Req: ref.Req, ID: ref.Span, Parent: parent.Span, Name: spanShardRPC, Start: start, End: t.rec.now()})
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.failed.Add(1)
		record(0)
		return nil, err
	}
	if resp.StatusCode >= 300 {
		t.failed.Add(1)
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, done: record}
	return resp, nil
}

// sourceTap wraps the study's audience source (core.AudienceSource plus the
// PrefixSource fast path): it times every PrefixReach call and, with a
// recorder, records it as a core.prefix_reach span under parent.
type sourceTap struct {
	*core.ModelSource
	rec    *recorder
	parent traceRef

	mu  sync.Mutex
	lat []time.Duration
}

// Catalog lets core.Collect hand the catalog to share-ranking selectors
// (LP), as it does for a bare ModelSource.
func (s *sourceTap) Catalog() *interest.Catalog { return s.Model.Catalog() }

func (s *sourceTap) PrefixReach(ids []interest.ID) ([]int64, error) {
	start := time.Now()
	out, err := s.ModelSource.PrefixReach(ids)
	lat := time.Since(start)
	s.mu.Lock()
	s.lat = append(s.lat, lat)
	s.mu.Unlock()
	if s.rec != nil {
		end := s.rec.now()
		s.rec.add(span{Req: s.parent.Req, ID: s.rec.id(), Parent: s.parent.Span, Name: spanPrefix, Start: end - int64(lat), End: end})
	}
	return out, err
}

func (s *sourceTap) latencies() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.lat...)
}
