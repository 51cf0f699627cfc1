package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per boundary the traced run wraps.
const (
	spanClient     = "client"              // loadgen request: send to body read
	spanServe      = "adsapi.serve"        // adsapi.Server.ServeHTTP
	spanBackend    = "serving.backend"     // one ReachBackend query method
	spanShardRPC   = "serving.shard_rpc"   // one proxy->shard RPC: send to body read
	spanShardServe = "serving.shard_serve" // ShardServer.ServeHTTP
	spanCollect    = "core.collect"        // core.Collect for one strategy
	spanPrefix     = "core.prefix_reach"   // one PrefixSource.PrefixReach call
	spanEstimate   = "core.estimate"       // core.EstimateNP for one P
	spanSetup      = "setup"               // one set-up step
)

// traceHeader carries "<request id>-<parent span id>" across HTTP hops.
const traceHeader = "X-Nanobench-Trace"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch (monotonic clock).
type span struct {
	Req, ID, Parent uint64
	Name            string
	Start, End      int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }
func (r *recorder) id() uint64 { return r.ids.Add(1) }
func (r *recorder) add(s span) { r.mu.Lock(); r.spans = append(r.spans, s); r.mu.Unlock() }
func (r *recorder) len() int   { r.mu.Lock(); defer r.mu.Unlock(); return len(r.spans) }
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every span as tab-separated text.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range r.all() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Req, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceRef is the (request, span) pair a child span hangs under.
type traceRef struct{ Req, Span uint64 }

type traceKey struct{}

func withRef(ctx context.Context, ref traceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, ref)
}

func refFrom(ctx context.Context) (traceRef, bool) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	return ref, ok
}

func (ref traceRef) header() string {
	return strconv.FormatUint(ref.Req, 10) + "-" + strconv.FormatUint(ref.Span, 10)
}

func parseRef(h string) (traceRef, bool) {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return traceRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	sp, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return traceRef{}, false
	}
	return traceRef{Req: req, Span: sp}, true
}

// selfTime is a span's duration minus the union of the intervals its
// children cover inside it: overlapping children (the parallel shard RPCs of
// one gather) are counted once.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// quantile is the linearly interpolated q-quantile of xs (sorted in place);
// NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
