package serving

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/worldcfg"
)

// FuzzShardSharesRequest gates the shard data-path decoder: arbitrary bytes
// never panic it; every body it accepts re-encodes to the identical bytes
// (the codec is a bijection, as FuzzCompositeKey checks for the cache keys it
// is built from), with every decoded clause capped; and the ShardServer
// answers any body with 200 or 400 — malformed input is the caller's fault,
// never a 5xx — and with 200 only for a body the decoder accepts.
func FuzzShardSharesRequest(f *testing.F) {
	cfg := worldcfg.Default()
	cfg.Population.Seed = 1
	cfg.Population.CatalogSize = 300
	cfg.Population.Population = 100_001
	cfg.Population.ActivityGrid = 16
	b, info, err := NewShardBackend(cfg, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewShardServer(b, info)
	if err != nil {
		f.Fatal(err)
	}

	filter := population.DemoFilter{Countries: []string{"ES", "FR"}, Genders: []population.Gender{population.GenderFemale}, AgeMin: 18, AgeMax: 40}
	for _, q := range []sharesRequest{
		{mask: 1 << factorDemo},
		{mask: 1 << factorUnion},
		{mask: 1 << factorConj, ids: []interest.ID{1, 2}},
		{mask: 1<<factorDemo | 1<<factorUnion, filter: filter, clauses: [][]interest.ID{{1, 2}, {3}}},
		{mask: 1<<factorDemo | 1<<factorConj, filter: filter, ids: []interest.ID{4}},
		{mask: 1<<numFactors - 1, filter: filter, clauses: [][]interest.ID{{5}, {}}, ids: []interest.ID{6, 7}},
		{mask: 1 << factorUnion, clauses: [][]interest.ID{{999999}}},
	} {
		f.Add(q.appendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{1 << numFactors})
	f.Add([]byte{1 << factorUnion, 0x80, 0x00})

	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := parseSharesRequest(body)
		if err == nil {
			if again := q.appendTo(nil); !bytes.Equal(again, body) {
				t.Fatalf("decode/encode not a bijection: % x re-encodes to % x", body, again)
			}
			// Decoded keys share one backing array; each must be capped so
			// an append to one cannot overwrite the next.
			for i, clause := range q.clauses {
				if cap(clause) != len(clause) {
					t.Fatalf("clause %d has spare capacity %d", i, cap(clause)-len(clause))
				}
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shardPathShares, bytes.NewReader(body)))
		switch {
		case rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest:
			t.Fatalf("body % x: HTTP %d (%s), want 200 or 400", body, rec.Code, rec.Body.String())
		case rec.Code == http.StatusOK && err != nil:
			t.Fatalf("body % x: HTTP 200 for a body the decoder rejects (%v)", body, err)
		case rec.Code == http.StatusOK:
			if _, err := parseShares(q.mask, rec.Body.Bytes()); err != nil {
				t.Fatalf("body % x: bad 200 response: %v", body, err)
			}
		}
	})
}

// TestParseRetryAfter pins the delay-seconds parser, including the two
// values that wrapped before saturation: 18446744074s overflowed to a
// 290ms wait and 9223372037s to a negative one.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"3", 3 * time.Second},
		{" 7 ", 7 * time.Second},
		{"+2", 2 * time.Second},
		{"-1", 0},
		{"1.5", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"9223372036", 9223372036 * time.Second},
		{"9223372037", math.MaxInt64},
		{"18446744074", math.MaxInt64},
		{"99999999999999999999999", math.MaxInt64},
		{"-99999999999999999999999", 0},
	} {
		if got := ParseRetryAfter(tc.in); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseRetryAfter: any header value parses to a non-negative wait, and
// the wait is monotone in the advertised seconds (saturating, never
// wrapping), exact wherever a time.Duration can hold it.
func FuzzParseRetryAfter(f *testing.F) {
	f.Add("3", uint64(0), uint64(1))
	f.Add("18446744074", uint64(9223372036), uint64(9223372037))
	f.Add("-5", uint64(18446744074), uint64(1<<63))
	f.Add(" 12 ", uint64(1<<64-1), uint64(7))
	f.Fuzz(func(t *testing.T, h string, a, b uint64) {
		if d := ParseRetryAfter(h); d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, negative", h, d)
		}
		if a > b {
			a, b = b, a
		}
		da := ParseRetryAfter(strconv.FormatUint(a, 10))
		db := ParseRetryAfter(strconv.FormatUint(b, 10))
		if da < 0 || da > db {
			t.Fatalf("not monotone: %ds -> %v, %ds -> %v", a, da, b, db)
		}
		if a <= uint64(math.MaxInt64/time.Second) && da != time.Duration(a)*time.Second {
			t.Fatalf("%ds parsed as %v", a, da)
		}
	})
}

// FuzzParseDeadlineMs: any X-Deadline-Ms value the shard accepts is a
// positive budget, accepted budgets are monotone in the milliseconds
// (saturating, never wrapping), and exact wherever a time.Duration can hold
// them.
func FuzzParseDeadlineMs(f *testing.F) {
	f.Add("60000", uint64(1), uint64(2))
	f.Add("9223372036855", uint64(9223372036854), uint64(9223372036855))
	f.Add("18446744073710", uint64(18446744073709), uint64(18446744073710))
	f.Add("-5", uint64(0), uint64(1<<64-1))
	f.Fuzz(func(t *testing.T, h string, a, b uint64) {
		if d, ok := parseDeadlineMs(h); ok && d <= 0 {
			t.Fatalf("parseDeadlineMs(%q) accepted a non-positive budget %v", h, d)
		}
		if a > b {
			a, b = b, a
		}
		da, oka := parseDeadlineMs(strconv.FormatUint(a, 10))
		db, okb := parseDeadlineMs(strconv.FormatUint(b, 10))
		if oka != (a > 0) || okb != (b > 0) {
			t.Fatalf("acceptance: %dms -> %v, %dms -> %v", a, oka, b, okb)
		}
		if oka && da > db {
			t.Fatalf("not monotone: %dms -> %v, %dms -> %v", a, da, b, db)
		}
		if oka && a <= uint64(math.MaxInt64/time.Millisecond) && da != time.Duration(a)*time.Millisecond {
			t.Fatalf("%dms parsed as %v", a, da)
		}
	})
}

// FuzzParseShardTopology: the -proxy topology parser never panics, and any
// spec it accepts yields one shard per comma-separated field, one replica
// per |-separated URL, every URL non-empty, trimmed and free of separators.
func FuzzParseShardTopology(f *testing.F) {
	f.Add("http://a:1")
	f.Add("u0a|u0b, u1 ,u2")
	f.Add(",")
	f.Add("a||b")
	f.Add(" \t|x")
	f.Fuzz(func(t *testing.T, spec string) {
		shards, err := ParseShardTopology(spec)
		if err != nil {
			return
		}
		if want := strings.Count(spec, ",") + 1; len(shards) != want {
			t.Fatalf("%q: %d shards, want %d", spec, len(shards), want)
		}
		for i, field := range strings.Split(spec, ",") {
			if want := strings.Count(field, "|") + 1; len(shards[i]) != want {
				t.Fatalf("%q: shard %d has %d replicas, want %d", spec, i, len(shards[i]), want)
			}
			for _, u := range shards[i] {
				if u == "" || u != strings.TrimSpace(u) || strings.ContainsAny(u, ",|") {
					t.Fatalf("%q: shard %d replica URL %q is empty, untrimmed or holds a separator", spec, i, u)
				}
			}
		}
	})
}
