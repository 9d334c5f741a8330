package main

// Seeded inputs. Every name, placement, Zipf draw and file byte is a
// pure function of the --seed argument, so the cluster only ever sees
// generated data and two runs with one seed see the same inputs.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective scramble of one word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// contentKey is the per-file content stream key: the seed and the name.
func contentKey(seed int64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return mix64(uint64(seed) ^ h.Sum64())
}

// fillContent writes the file bytes [off, off+len(dst)) of the stream
// with the given key. Word i of a file is mix64(key + (i+1)·golden), so
// any range can be generated without the bytes before it. off and
// len(dst) must be multiples of 8; every size the benchmark uses is.
func fillContent(key uint64, off int64, dst []byte) {
	if off%8 != 0 || len(dst)%8 != 0 {
		panic(fmt.Sprintf("fillContent: unaligned range off=%d len=%d", off, len(dst)))
	}
	w := uint64(off / 8)
	for i := 0; i < len(dst); i += 8 {
		w++
		binary.LittleEndian.PutUint64(dst[i:], mix64(key+w*golden))
	}
}

// namespace is a seeded set of file names under one prefix.
type namespace struct {
	seed   int64
	prefix string
	n      int
}

func newNamespace(seed int64, kind string, n int) namespace {
	return namespace{seed: seed, n: n,
		prefix: fmt.Sprintf("/bench/%s/%016x", kind, mix64(uint64(seed)^uint64(len(kind))))}
}

func (ns namespace) name(i int) string { return fmt.Sprintf("%s/f%06d", ns.prefix, i) }

// server places file i on one of `servers` data servers.
func (ns namespace) server(i, servers int) int {
	return int(mix64(uint64(ns.seed)+uint64(i)*golden) % uint64(servers))
}

// zipfPicker draws namespace indices with Zipf-distributed popularity.
// Rank r maps to a seeded permutation slot, so the popular files are
// spread over the servers instead of sitting on whichever holds file 0.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

// zipfS is the Zipf exponent (popularity of rank r is ∝ 1/r^s).
const zipfS = 1.1

func newZipfPicker(seed int64, n int) *zipfPicker {
	r := rand.New(rand.NewSource(seed))
	return &zipfPicker{z: rand.NewZipf(r, zipfS, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }
