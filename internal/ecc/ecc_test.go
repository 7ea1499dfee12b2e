package ecc

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check the field structure.
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
	if gfMul(0, 7) != 0 || gfMul(7, 0) != 0 {
		t.Fatal("zero absorption broken")
	}
	if gfMul(1, 123) != 123 {
		t.Fatal("identity broken")
	}
}

func TestGFMulAssociativeProperty(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c)) &&
			gfMul(a, b) == gfMul(b, a) &&
			gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c) // distributivity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gfDiv(3, 0)
}

func TestRSEncodeCleanDecode(t *testing.T) {
	rs := NewRS(8)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	word := rs.Encode(data)
	if len(word) != 64+16 {
		t.Fatalf("codeword length = %d", len(word))
	}
	got, err := rs.Decode(append([]byte{}, word...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clean decode mangled data")
	}
}

func TestRSCorrectsUpToT(t *testing.T) {
	for _, tcap := range []int{1, 2, 4, 8} {
		rs := NewRS(tcap)
		data := []byte("the quick brown fox jumps over the lazy dog 0123456789")
		word := rs.Encode(data)
		rng := sim.NewRNG(uint64(tcap))
		for errs := 1; errs <= tcap; errs++ {
			recv := append([]byte{}, word...)
			// Corrupt errs distinct positions.
			seen := map[int]bool{}
			for len(seen) < errs {
				p := rng.Intn(len(recv))
				if seen[p] {
					continue
				}
				seen[p] = true
				recv[p] ^= byte(rng.Intn(255) + 1)
			}
			got, err := rs.Decode(recv)
			if err != nil {
				t.Fatalf("t=%d errs=%d: %v", tcap, errs, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("t=%d errs=%d: wrong correction", tcap, errs)
			}
		}
	}
}

func TestRSRejectsBeyondT(t *testing.T) {
	rs := NewRS(2)
	data := make([]byte, 32)
	word := rs.Encode(data)
	rng := sim.NewRNG(9)
	rejected := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		recv := append([]byte{}, word...)
		seen := map[int]bool{}
		for len(seen) < 5 { // t+3 errors
			p := rng.Intn(len(recv))
			if seen[p] {
				continue
			}
			seen[p] = true
			recv[p] ^= byte(rng.Intn(255) + 1)
		}
		got, err := rs.Decode(recv)
		if err != nil || !bytes.Equal(got, data) {
			rejected++
		}
	}
	// Miscorrection beyond 2t is possible but must be rare.
	if rejected < trials*9/10 {
		t.Fatalf("only %d/%d overloaded words rejected/mangled-detected", rejected, trials)
	}
}

func TestRSCorrectionProperty(t *testing.T) {
	rs := NewRS(4)
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		data := raw
		if len(data) > 200 {
			data = data[:200]
		}
		word := rs.Encode(data)
		rng := sim.NewRNG(seed)
		recv := append([]byte{}, word...)
		errs := rng.Intn(5) // 0..4 ≤ t
		seen := map[int]bool{}
		for len(seen) < errs {
			p := rng.Intn(len(recv))
			if seen[p] {
				continue
			}
			seen[p] = true
			recv[p] ^= byte(rng.Intn(255) + 1)
		}
		got, err := rs.Decode(recv)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRSBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized codeword")
		}
	}()
	NewRS(8).Encode(make([]byte, 250))
}

func TestRSBadT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRS(0)
}

func TestXCCRoundTrip(t *testing.T) {
	lo := bytes.Repeat([]byte{0xAA}, HalfSize)
	hi := bytes.Repeat([]byte{0x55}, HalfSize)
	p := XCCParity(lo, hi)
	if got := XCCReconstruct(hi, p); !bytes.Equal(got, lo) {
		t.Fatal("lo reconstruction failed")
	}
	if got := XCCReconstruct(lo, p); !bytes.Equal(got, hi) {
		t.Fatal("hi reconstruction failed")
	}
}

func TestXCCReconstructProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		lo := make([]byte, HalfSize)
		hi := make([]byte, HalfSize)
		for i := range lo {
			lo[i] = byte(rng.Uint64())
			hi[i] = byte(rng.Uint64())
		}
		p := XCCParity(lo, hi)
		return bytes.Equal(XCCReconstruct(hi, p), lo) &&
			bytes.Equal(XCCReconstruct(lo, p), hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXCCSizeChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	XCCParity(make([]byte, 16), make([]byte, 32))
}
