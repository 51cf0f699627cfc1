package audience

// Fuzz target for the conjunction-key codec: the cache's correctness rests
// on the encoding being a bijection between ordered interest sequences and
// key strings (a collision would silently serve one conjunction's audience
// for another). CI runs this for a short -fuzztime as a smoke job.

import (
	"bytes"
	"reflect"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

func FuzzConjunctionKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 2, 3}) // ragged: must be rejected, not mis-decoded
	f.Fuzz(func(t *testing.T, raw []byte) {
		ids, err := DecodeKey(raw)
		if err != nil {
			if len(raw)%KeyBytesPerID == 0 {
				t.Fatalf("whole-width key %x rejected: %v", raw, err)
			}
			return
		}
		// Decode→encode must reproduce the exact bytes (bijectivity)...
		re := AppendKey(nil, ids)
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-encode of %x = %x", raw, re)
		}
		// ...and the string form must agree with the append form.
		if Key(ids) != string(raw) {
			t.Fatalf("Key disagrees with AppendKey for %x", raw)
		}
		// Prefix property: every prefix of the key decodes to the ID prefix —
		// this is what lets the cache walk extend keys in place.
		for n := 0; n <= len(ids); n++ {
			prefix, err := DecodeKey(raw[:n*KeyBytesPerID])
			if err != nil {
				t.Fatalf("prefix %d of %x rejected: %v", n, raw, err)
			}
			if len(prefix) != n {
				t.Fatalf("prefix %d of %x decoded to %d ids", n, raw, len(prefix))
			}
			for i := range prefix {
				if prefix[i] != ids[i] {
					t.Fatalf("prefix %d of %x diverged at %d", n, raw, i)
				}
			}
		}
		_ = ids
	})
}

// FuzzCompositeKey gates the composite (DemoFilter, conjunction) codec the
// demo cache level keys on: every whole key must decode and re-encode to the
// exact same bytes (bijectivity — a collision would serve one filter's
// audience for another), and structurally distinct filters must never
// collide. The fuzzer drives both directions: raw bytes through the decoder,
// and two constructed filters through the encoder.
func FuzzCompositeKey(f *testing.F) {
	f.Add([]byte{}, "ES", "FR", uint8(1), int16(13), int16(65), uint32(1), uint32(2))
	f.Add([]byte{0, 0}, "", "WW", uint8(0), int16(0), int16(0), uint32(0), uint32(0))
	f.Add([]byte{2, 1, 65, 0}, "AR", "AR", uint8(2), int16(-3), int16(200), uint32(7), uint32(7))
	f.Fuzz(func(t *testing.T, raw []byte, c1, c2 string, g uint8, ageMin, ageMax int16, id1, id2 uint32) {
		// Direction 1: arbitrary bytes. Whatever decodes must re-encode to
		// the identical byte string (the codec is a bijection onto its
		// image), and the filter half must consume exactly what it wrote.
		if fd, ids, err := DecodeCompositeKey(raw); err == nil {
			re := AppendCompositeKey(nil, fd, ids)
			if !bytes.Equal(re, raw) {
				t.Fatalf("re-encode of %x = %x (filter %+v ids %v)", raw, re, fd, ids)
			}
		}
		// Direction 2: constructed filters. Encode → decode must be the
		// identity on the struct, and distinct constructions must yield
		// distinct keys unless they are field-for-field equal.
		f1 := population.DemoFilter{
			Countries: []string{c1, c2},
			Genders:   []population.Gender{population.Gender(g)},
			AgeMin:    int(ageMin), AgeMax: int(ageMax),
		}
		f2 := population.DemoFilter{
			Countries: []string{c2},
			AgeMin:    int(ageMin),
		}
		ids := []interest.ID{interest.ID(id1), interest.ID(id2)}
		k1 := AppendCompositeKey(nil, f1, ids)
		k2 := AppendCompositeKey(nil, f2, ids)
		d1, ids1, err := DecodeCompositeKey(k1)
		if err != nil {
			t.Fatalf("own key rejected: %v", err)
		}
		if !reflect.DeepEqual(d1, f1) || !reflect.DeepEqual(ids1, ids) {
			t.Fatalf("round trip of (%+v, %v) = (%+v, %v)", f1, ids, d1, ids1)
		}
		if bytes.Equal(k1, k2) && !reflect.DeepEqual(f1, f2) {
			t.Fatalf("distinct filters %+v and %+v collide on key %x", f1, f2, k1)
		}
	})
}

// FuzzKeyOrderSensitivity feeds pairs of IDs: distinct ordered sequences
// must produce distinct keys, and identical sequences identical keys.
func FuzzKeyOrderSensitivity(f *testing.F) {
	f.Add(uint32(1), uint32(2))
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(0xFFFFFFFF), uint32(1))
	f.Fuzz(func(t *testing.T, a, b uint32) {
		ab := Key([]interest.ID{interest.ID(a), interest.ID(b)})
		ba := Key([]interest.ID{interest.ID(b), interest.ID(a)})
		if (a == b) != (ab == ba) {
			t.Fatalf("key collision/divergence for %d,%d", a, b)
		}
		if Key([]interest.ID{interest.ID(a)}) == ab {
			t.Fatalf("1-id key equals 2-id key for %d,%d", a, b)
		}
	})
}
