// Package seeded provides math/rand generators whose seeding costs only
// what the stream later uses, while yielding exactly the values of
// rand.New(rand.NewSource(seed)).
//
// math/rand's source is an additive lagged-Fibonacci generator over 607
// state words. Seeding fills all of them, three Lehmer steps each, which
// costs about 11 µs — while one Intn costs about 5 ns, so a seeded
// 32-element draw is almost all seeding. Each seeded word is a closed form
// of the seed (state word i mixes seed·48271^(21+3i..23+3i) mod 2³¹−1 with
// a fixed cooked constant), so this source computes a word the first time
// the generator reads it instead of at Seed. Seed itself is O(1).
package seeded

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
)

const (
	rngLen   = 607             // state words
	rngTap   = 273             // lag of the tap behind the feed
	rngMask  = 1<<63 - 1       // Int63's mask
	int32max = 1<<31 - 1       // the Lehmer modulus 2³¹−1
	lehmerA  = 48271           // the Lehmer multiplier
	zeroSeed = 89482311        // math/rand's substitute for a zero seed
	freshAll = rngLen - rngTap // draws during which the feed word is unread
)

// pow[i] holds 48271^(21+3i+j) mod 2³¹−1 for j = 0, 1, 2: the multipliers
// that take a normalized seed to the three Lehmer states state word i is
// built from.
var pow [rngLen][3]uint64

// cooked is math/rand's rngCooked table, the constant every seeded state
// word is XORed with. It is recovered at init from a source seeded with 1
// (its state is cooked ^ the seed-1 Lehmer words) and checked against
// math/rand before any caller can draw.
var cooked [rngLen]int64

func init() {
	x := uint64(1)
	for j := 1; j <= 20; j++ {
		x = x * lehmerA % int32max
	}
	for i := range pow {
		for j := range pow[i] {
			x = x * lehmerA % int32max
			pow[i][j] = x
		}
	}
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	if !vec.IsValid() || vec.Kind() != reflect.Array || vec.Len() != rngLen {
		panic("seeded: math/rand's source has an unexpected layout")
	}
	var s source
	s.Seed(1)
	for i := range cooked {
		cooked[i] = vec.Index(i).Int() ^ s.word(i) // cooked is still zero here
	}
	for _, seed := range []int64{0, 1, -5, 1 << 40} {
		if err := check(seed, 2*rngLen); err != nil {
			panic(err)
		}
	}
}

// check compares the first draws of a source seeded with seed against
// math/rand's.
func check(seed int64, draws int) error {
	want := rand.NewSource(seed).(rand.Source64)
	var got source
	got.Seed(seed)
	for k := 1; k <= draws; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Errorf("seeded: seed %d draw %d: %#x, math/rand %#x", seed, k, g, w)
		}
	}
	return nil
}

// source is a rand.Source64 that yields exactly the stream of
// rand.NewSource with the same seed. The zero value must be seeded before
// its first draw.
type source struct {
	seed      uint64 // normalized seed in [1, 2³¹−1)
	drawn     int    // draws since Seed, counted up to freshAll
	tap, feed int
	vec       [rngLen]int64
}

// Seed restarts the stream at seed. It only normalizes the seed as
// math/rand does; the state words are computed as the draws reach them.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.drawn = 0
	s.tap, s.feed = 0, rngLen-rngTap
}

// word returns state word i as seeding with s.seed leaves it.
func (s *source) word(i int) int64 {
	p := &pow[i]
	return int64(s.seed*p[0]%int32max)<<40 ^
		int64(s.seed*p[1]%int32max)<<20 ^
		int64(s.seed*p[2]%int32max) ^
		cooked[i]
}

// Uint64 returns the next value of the stream.
//
// Draw k (1-based) reads feed word 334−k and tap word 607−k. For k ≤ 334
// the feed word has never been read, and for k ≤ 273 neither has the tap
// word, so they are computed here (the tap word is stored: the feed
// reaches it again at draw k+334). From draw 335 on every word has been
// computed or written, and the source runs exactly math/rand's loop.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < freshAll {
		s.drawn++
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn <= rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// New returns a generator seeded with seed: rand.New(rand.NewSource(seed)),
// value for value, without paying for the seeding up front.
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// pool recycles generators: a source carries 4.9 KB of state, and
// re-seeding one restores exactly the stream a fresh one starts.
var pool = sync.Pool{New: func() any { return New(0) }}

// Borrow returns a pooled generator seeded with seed, which yields the
// stream of New(seed). Hand it back with Return once done and keep no
// reference to it afterwards.
func Borrow(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Return gives a generator from Borrow back to the pool.
func Return(r *rand.Rand) { pool.Put(r) }
