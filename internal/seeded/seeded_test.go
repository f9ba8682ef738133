package seeded

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds whose normalization math/rand special-cases:
// zero and its substitute, negatives, the modulus and its multiples, and
// seeds wider than 32 bits.
var edgeSeeds = []int64{
	0, 1, -1, 42, -7, zeroSeed, -zeroSeed,
	int32max, -int32max, 2 * int32max, 3*int32max + 1, int32max - 1, int32max + 1,
	1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64,
}

// The raw stream equals math/rand's for every edge seed, well past the
// 607th draw where the lagged-Fibonacci feed wraps onto written words.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		if err := check(seed, 5*rngLen); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(-300); seed < 300; seed++ {
		if err := check(seed*7919, 700); err != nil {
			t.Fatal(err)
		}
	}
}

// Re-seeding mid-stream, at each boundary of the lazy phase, restarts the
// stream exactly.
func TestReseedMidStream(t *testing.T) {
	for _, cut := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, freshAll - 1, freshAll, freshAll + 1, rngLen, 2 * rngLen} {
		var s source
		s.Seed(99)
		for range cut {
			s.Uint64()
		}
		s.Seed(-123)
		want := rand.NewSource(-123).(rand.Source64)
		for k := 1; k <= 2*rngLen; k++ {
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("re-seed after %d draws: draw %d = %#x, math/rand %#x", cut, k, g, w)
			}
		}
	}
}

// A borrowed generator yields the stream of a fresh one, whatever the
// pooled generator drew before it was returned.
func TestBorrowMatchesFresh(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		r := Borrow(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if a, b := r.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: borrowed %d, fresh %d", seed, i, a, b)
			}
		}
		r.ExpFloat64()
		Return(r)
	}
}

// Re-seeding costs nothing per state word: a re-seed plus a short draw
// allocates nothing.
func TestBorrowAllocatesNothing(t *testing.T) {
	Return(Borrow(1))
	if n := testing.AllocsPerRun(100, func() {
		r := Borrow(7)
		r.Intn(63)
		Return(r)
	}); n != 0 {
		t.Errorf("Borrow+Intn+Return allocates %v times, want 0", n)
	}
}

// FuzzSeededSource is the value-for-value wall against math/rand: a seed
// and a byte string of operations (Int63, Uint64, Intn, Int31n, Float64,
// ExpFloat64, Perm, a 97-draw burst, and a re-Seed) run on both
// generators, and every result must agree.
func FuzzSeededSource(f *testing.F) {
	long := make([]byte, 40)
	for i := range long {
		long[i] = byte(7 + 9*i) // bursts: ~3,900 draws
	}
	mixed := []byte{0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 7, 7, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 7, 7, 7, 5, 6}
	for _, seed := range edgeSeeds {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 6})
		f.Add(seed, long)
		f.Add(seed, mixed)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i, b := range ops {
			var g, w any
			switch b % 9 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				n := int(b)*131 + 1
				g, w = got.Intn(n), want.Intn(n)
			case 3:
				n := int32(b)<<20 | 1
				g, w = got.Int31n(n), want.Int31n(n)
			case 4:
				g, w = got.Float64(), want.Float64()
			case 5:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 6:
				n := int(b % 40)
				gp, wp := got.Perm(n), want.Perm(n)
				for j := range gp {
					if gp[j] != wp[j] {
						t.Fatalf("op %d Perm(%d) = %v, math/rand %v", i, n, gp, wp)
					}
				}
				continue
			case 7:
				for k := 0; k < 97; k++ {
					if a, c := got.Int63(), want.Int63(); a != c {
						t.Fatalf("op %d burst draw %d: %d, math/rand %d", i, k, a, c)
					}
				}
				continue
			case 8:
				s := seed ^ int64(b)<<33
				got.Seed(s)
				want.Seed(s)
				continue
			}
			if g != w {
				t.Fatalf("seed %d op %d (%d): %v, math/rand %v", seed, i, b%9, g, w)
			}
		}
	})
}
