package main

import "fmt"

// request is one HTTP request of the serve workload.
type request struct {
	path string
	body string
}

// key identifies a request for the body-identity check.
func (r request) key() string { return r.path + "\x00" + r.body }

// newKeyEvery is the spacing of first sightings in a request sequence:
// each block of this many requests introduces exactly one new key, so
// nine requests in ten repeat an earlier key.
const newKeyEvery = 10

// mix64 is the splitmix64 finalizer, a stateless hash that lets any
// request of a sequence be drawn without generating its predecessors.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashDraw(seed int64, stream, i uint64) uint64 {
	return mix64(mix64(uint64(seed)^stream<<56) ^ i)
}

// planKey returns the key of request i of the seeded sequence. Block b
// of newKeyEvery requests introduces key b at a seeded position (block 0
// at its start); every other request repeats a key drawn uniformly from
// those already introduced.
func planKey(seed int64, i int) int {
	b := i / newKeyEvery
	pos := 0
	if b > 0 {
		pos = int(hashDraw(seed, 1, uint64(b)) % newKeyEvery)
	}
	off := i % newKeyEvery
	if off == pos {
		return b
	}
	known := b // keys 0..b-1
	if off > pos {
		known++ // key b came earlier in this block
	}
	return int(hashDraw(seed, 2, uint64(i)) % uint64(known))
}

// requestPlan is the first n requests of a seeded sequence: each
// request's key index, and every key's request built once.
type requestPlan struct {
	keys []request
	seq  []int32
}

// plan materializes the first n requests of the seeded sequence.
func plan(seed int64, n int) requestPlan {
	p := requestPlan{seq: make([]int32, n)}
	for i := range p.seq {
		k := planKey(seed, i)
		for len(p.keys) <= k {
			p.keys = append(p.keys, keyRequest(seed, len(p.keys)))
		}
		p.seq[i] = int32(k)
	}
	return p
}

// at returns request i, cycling if i runs past the plan.
func (p requestPlan) at(i int) request { return p.keys[p.seq[i%len(p.seq)]] }

// keyRequest is the body of key k: the cmd/loadgen mix of /v1/simulate,
// /v1/collective, /v1/tree and /v1/traffic in a 4:2:1:1 ratio, including
// payload-verified collectives and drop-faulted traffic, with every body
// seed drawn from the workload seed.
func keyRequest(seed int64, k int) request {
	ops := []string{"scatter", "gather", "allgather", "reduce", "barrier", "allreduce"}
	algs := []string{"w-sort", "u-cube", "sf-binomial", "maxport"}
	ks := int64(hashDraw(seed, 3, uint64(k)) % (1 << 30))
	switch k % 8 {
	case 0, 1, 2, 3:
		return request{"/v1/simulate", fmt.Sprintf(
			`{"dim":6,"algorithm":%q,"src":0,"dest_count":%d,"seed":%d,"bytes":%d}`,
			algs[k%len(algs)], 5+k%40, ks, 256<<(k%4))}
	case 4:
		return request{"/v1/collective", fmt.Sprintf(
			`{"op":%q,"dim":5,"root":0,"bytes":%d}`, ops[int(ks)%len(ops)], 512+128*(int(ks/8)%8))}
	case 5:
		data := []string{
			`"op":"reduce-scatter"`,
			`"op":"allreduce","variant":"hd"`,
			`"op":"allreduce","variant":"ring"`,
			`"op":"alltoall"`,
		}
		return request{"/v1/collective", fmt.Sprintf(
			`{%s,"dim":4,"bytes":%d,"seed":%d}`, data[(k/8)%len(data)], 64+32*(k%4), ks)}
	case 6:
		return request{"/v1/tree", fmt.Sprintf(
			`{"dim":6,"algorithm":%q,"src":0,"dest_count":%d,"seed":%d}`,
			algs[k%len(algs)], 8+k%32, ks)}
	}
	if (k/8)%2 == 0 && (k/16)%2 == 1 {
		return request{"/v1/traffic", fmt.Sprintf(
			`{"dim":4,"seed":%d,"arrivals":{"kind":"poisson","count":%d,"rate_per_ms":%d,"op":{"kind":"allreduce","bytes":256}}}`,
			ks, 4+k%4, 1+k%4)}
	}
	faults := ""
	if (k/8)%2 == 1 {
		faults = fmt.Sprintf(`,"faults":[{"kind":"link","count":%d,"seed":%d}]`, 1+k%3, ks)
	}
	return request{"/v1/traffic", fmt.Sprintf(
		`{"dim":5,"seed":%d,"arrivals":{"kind":"poisson","count":%d,"rate_per_ms":%d,"op":{"kind":"multicast","algorithm":%q,"dest_count":%d,"bytes":1024}}%s}`,
		ks, 8+k%8, 1+k%8, algs[k%len(algs)], 4+k%12, faults)}
}
