package serving

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

// The shard data-path wire: every reach query crosses the proxy→shard hop as
// ONE POST /shard/v1/shares RPC per shard, carrying every reach factor the
// query needs. The body is binary, built from the audience cache's fuzzed key
// codecs:
//
//	mask    1 byte; bit k requests factor k (factorDemo, factorUnion, factorConj)
//	filter  population.DemoFilter.AppendKey            (iff factorDemo)
//	clauses uvarint clause count, then per clause       (iff factorUnion)
//	        uvarint byte length + audience.AppendKey
//	ids     uvarint byte length + audience.AppendKey   (iff factorConj)
//
// Decoding is strict — minimal varints, counts bounded by the bytes left, no
// trailing bytes — so the codec is a bijection between byte strings and
// requests (FuzzShardSharesRequest). The response is the 8 big-endian
// IEEE-754 bytes of each requested factor in factor order: the shard's exact
// float64 bits, with no text round trip in between.

// shardWireVersion identifies the data-path wire format. A ShardServer
// reports it in ShardHealthInfo and the proxy's identity probe refuses any
// other value, so a shard from an older build (which answers
// /shard/v1/shares with 404) stays down instead of flapping between a passing
// probe and failing data RPCs. Bump it whenever either encoding changes.
const shardWireVersion = 2

// Reach factors a shares request can carry; factor k is requested by mask bit
// 1<<k and answered in slot k of a shares vector.
const (
	factorDemo  = iota // engine DemoShare(filter)
	factorUnion        // engine UnionShare(clauses)
	factorConj         // engine ConjunctionShare(ids)
	numFactors
)

// maxSharesBody caps a shares request body.
const maxSharesBody = 1 << 20

// shares holds one value per reach factor, indexed by factor; factors a
// request did not ask for stay zero.
type shares [numFactors]float64

// sharesRequest is one decoded /shard/v1/shares body.
type sharesRequest struct {
	mask    byte
	filter  population.DemoFilter
	clauses [][]interest.ID
	ids     []interest.ID
}

func (q *sharesRequest) has(factor int) bool { return q.mask&(1<<factor) != 0 }

// appendTo appends the request's wire encoding to dst.
func (q *sharesRequest) appendTo(dst []byte) []byte {
	dst = append(dst, q.mask)
	if q.has(factorDemo) {
		dst = q.filter.AppendKey(dst)
	}
	if q.has(factorUnion) {
		dst = binary.AppendUvarint(dst, uint64(len(q.clauses)))
		for _, clause := range q.clauses {
			dst = appendIDs(dst, clause)
		}
	}
	if q.has(factorConj) {
		dst = appendIDs(dst, q.ids)
	}
	return dst
}

func appendIDs(dst []byte, ids []interest.ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)*audience.KeyBytesPerID))
	return audience.AppendKey(dst, ids)
}

// parseSharesRequest inverts appendTo, rejecting every byte string appendTo
// cannot produce. Interest IDs are not checked against a catalog here; the
// ShardServer does that.
func parseSharesRequest(body []byte) (sharesRequest, error) {
	var q sharesRequest
	if len(body) == 0 {
		return q, errors.New("empty body: no factor mask")
	}
	q.mask, body = body[0], body[1:]
	if q.mask == 0 || q.mask >= 1<<numFactors {
		return q, fmt.Errorf("factor mask %#x: want a non-empty subset of %#x", q.mask, 1<<numFactors-1)
	}
	// Every decoded ID takes 4 body bytes, so one array sized from the body
	// backs all clauses and the conjunction without growing.
	backing := make([]interest.ID, 0, len(body)/audience.KeyBytesPerID)
	var err error
	if q.has(factorDemo) {
		if q.filter, body, err = population.DecodeDemoFilterKey(body); err != nil {
			return q, err
		}
	}
	if q.has(factorUnion) {
		var n uint64
		if n, body, err = takeUvarint(body, "clause count"); err != nil {
			return q, err
		}
		// Every clause carries at least its one-byte length prefix.
		if n > uint64(len(body)) {
			return q, fmt.Errorf("clause count %d overruns the %d bytes left", n, len(body))
		}
		if n > 0 {
			q.clauses = make([][]interest.ID, n)
		}
		for i := range q.clauses {
			if q.clauses[i], backing, body, err = takeIDs(body, "clause", backing); err != nil {
				return q, err
			}
		}
	}
	if q.has(factorConj) {
		if q.ids, _, body, err = takeIDs(body, "conjunction", backing); err != nil {
			return q, err
		}
	}
	if len(body) != 0 {
		return q, fmt.Errorf("%d trailing bytes", len(body))
	}
	return q, nil
}

// takeIDs reads one uvarint-length-prefixed conjunction key, decoding it
// onto backing; the returned IDs are capped so appending to them cannot
// overwrite a later key's.
func takeIDs(b []byte, what string, backing []interest.ID) (ids, grown []interest.ID, rest []byte, err error) {
	n, b, err := takeUvarint(b, what+" length")
	if err != nil {
		return nil, nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("%s length %d overruns the %d bytes left", what, n, len(b))
	}
	start := len(backing)
	if backing, err = audience.AppendDecodedKey(backing, b[:n]); err != nil {
		return nil, nil, nil, err
	}
	return backing[start:len(backing):len(backing)], backing, b[n:], nil
}

// takeUvarint reads one minimal uvarint: a non-minimal encoding (\x80\x00
// also decodes to 0) would break the codec's bijection.
func takeUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or overflowing varint at %s", what)
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("non-minimal varint at %s", what)
	}
	return v, b[n:], nil
}

// appendShares appends the response encoding of v's requested factors.
func appendShares(dst []byte, mask byte, v *shares) []byte {
	for k := range v {
		if mask&(1<<k) != 0 {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v[k]))
		}
	}
	return dst
}

// parseShares inverts appendShares.
func parseShares(mask byte, data []byte) (shares, error) {
	var v shares
	if want := 8 * bits.OnesCount8(mask); len(data) != want {
		return v, fmt.Errorf("%d-byte shares response, want %d", len(data), want)
	}
	for k := range v {
		if mask&(1<<k) != 0 {
			v[k] = math.Float64frombits(binary.BigEndian.Uint64(data))
			data = data[8:]
		}
	}
	return v, nil
}

// evalShares evaluates a request's factors on one world's engine: the
// ShardServer's handler and every in-process ShardedBackend shard run
// exactly this.
func evalShares(e *audience.Engine, q *sharesRequest) shares {
	var v shares
	if q.has(factorDemo) {
		v[factorDemo] = e.DemoShare(q.filter)
	}
	if q.has(factorUnion) {
		v[factorUnion] = e.UnionShare(q.clauses)
	}
	if q.has(factorConj) {
		v[factorConj] = e.ConjunctionShare(q.ids)
	}
	return v
}

// conditionalAudience composes the §4.1 conditional audience from gathered
// factor shares and the topology population: 1 + max(0, Pop·demo − 1)·conj,
// the arithmetic the local engine's ExpectedAudienceConditional applies.
func conditionalAudience(pop int64, demo, conj float64) float64 {
	base := float64(pop)*demo - 1
	if base < 0 {
		base = 0
	}
	return 1 + base*conj
}
