package audience

import (
	"encoding/binary"
	"fmt"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

// Conjunction keys.
//
// A cache key is the canonical byte encoding of an ORDERED interest
// sequence: 4 bytes big-endian per interest.ID. Fixed-width encoding makes
// the mapping bijective (no two distinct sequences share a key), and the
// cache interns one string per distinct key so steady-state lookups allocate
// nothing.
//
// Keys deliberately preserve query order instead of sorting the set:
// quadrature evaluation multiplies survivor products in query order, and
// floating-point multiplication is not associative, so a sort-canonicalized
// cache could return bits that differ from an uncached evaluation of the
// same query. Order-preserving keys are what make the cache byte-invisible
// (the determinism gate in determinism_test.go). Attacker probe loops grow
// conjunctions by appending, so their re-queries share ordered prefixes and
// hit anyway.

// KeyBytesPerID is the fixed width of one encoded interest.ID in a key.
const KeyBytesPerID = 4

// AppendKey appends the canonical encoding of ids to dst and returns the
// extended slice. Appending one more interest extends the key in place,
// which is how the prefix walk builds all n keys in O(n) bytes.
func AppendKey(dst []byte, ids []interest.ID) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// Key returns the canonical key of an interest sequence as a string.
func Key(ids []interest.ID) string {
	return string(AppendKey(make([]byte, 0, len(ids)*KeyBytesPerID), ids))
}

// DecodeKey inverts Key/AppendKey. It errors on any byte string that is not
// a whole number of encoded IDs — the fuzz harness uses this to check the
// encoding stays bijective.
func DecodeKey(key []byte) ([]interest.ID, error) {
	if len(key)%KeyBytesPerID != 0 {
		return nil, fmt.Errorf("audience: key length %d is not a multiple of %d", len(key), KeyBytesPerID)
	}
	return AppendDecodedKey(make([]interest.ID, 0, len(key)/KeyBytesPerID), key)
}

// AppendDecodedKey is DecodeKey appending the IDs to dst, so a caller
// decoding many keys can back them all with one array.
func AppendDecodedKey(dst []interest.ID, key []byte) ([]interest.ID, error) {
	if len(key)%KeyBytesPerID != 0 {
		return dst, fmt.Errorf("audience: key length %d is not a multiple of %d", len(key), KeyBytesPerID)
	}
	for i := 0; i < len(key); i += KeyBytesPerID {
		dst = append(dst, interest.ID(binary.BigEndian.Uint32(key[i:])))
	}
	return dst, nil
}

// Composite (DemoFilter, conjunction) keys.
//
// Demographic-dependent results (ExpectedAudienceConditional, DemoShare) are
// keyed by the filter's self-delimiting encoding (population.DemoFilter's
// AppendKey) followed by the conjunction encoding above. Both halves are
// bijective and the filter half is length-prefixed, so the composition is
// bijective too: no (filter, conjunction) pair collides with any other
// (FuzzCompositeKey gates this). The engine prepends a one-byte kind tag
// before storing, so values of different meaning (a filter share vs a
// conditional audience over the same pair) can never alias.

// AppendCompositeKey appends the canonical encoding of the (filter,
// conjunction) pair to dst and returns the extended slice.
func AppendCompositeKey(dst []byte, f population.DemoFilter, ids []interest.ID) []byte {
	dst = f.AppendKey(dst)
	return AppendKey(dst, ids)
}

// DecodeCompositeKey inverts AppendCompositeKey.
func DecodeCompositeKey(key []byte) (population.DemoFilter, []interest.ID, error) {
	f, rest, err := population.DecodeDemoFilterKey(key)
	if err != nil {
		return population.DemoFilter{}, nil, err
	}
	ids, err := DecodeKey(rest)
	if err != nil {
		return population.DemoFilter{}, nil, err
	}
	return f, ids, nil
}
