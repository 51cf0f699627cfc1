package serving

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

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
