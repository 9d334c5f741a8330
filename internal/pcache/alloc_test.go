package pcache

import (
	"testing"

	"scalla/internal/proto"
	"scalla/internal/race"
)

// allocRig builds a proxy over a live origin with one fully cached
// 256 KiB file, then measures the hit path alone — the downstream
// network is bypassed exactly as in the xrd read-path alloc test.
func allocRig(tb testing.TB) (*Proxy, uint64) {
	tb.Helper()
	o := startOrigin(tb, 1)
	data := payload(42, 256<<10)
	if err := o.stores[0].Put("/big", data); err != nil {
		tb.Fatal(err)
	}
	p := New(Config{
		Net:     o.net,
		Addr:    "edge:data",
		Origins: []string{o.mgr.DataAddr()},
	})
	tb.Cleanup(p.Close)
	// Bind a read handle and make every block resident without a
	// downstream connection: drive dispatch directly.
	reply := p.open(proto.Open{Path: "/big"}, handleSet{})
	ok, isOK := reply.(proto.OpenOK)
	if !isOK {
		tb.Fatalf("open: %#v", reply)
	}
	fh := ok.FH
	h := p.handleFor(fh)
	for off := int64(0); off < int64(len(data)); off += int64(p.cfg.BlockSize) {
		if msg := p.fill(h, proto.Read{FH: fh, Off: off, N: uint32(p.cfg.BlockSize)}); msg != nil {
			tb.Fatalf("fill at %d: %#v", off, msg)
		}
	}
	return p, fh
}

// TestProxyHitPathAllocsNothing pins the proxy's block-cache hit path:
// after the frame pool warms up, serving a 64 KiB cached read must
// allocate nothing — the block bytes are copied once into a pooled
// frame under the cache lock, the same single-copy discipline as the
// xrd read path (DESIGN.md §9).
func TestProxyHitPathAllocsNothing(t *testing.T) {
	p, fh := allocRig(t)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	// Warm the frame pool outside the measurement.
	if f, _, ok := p.readFrame(read, 7); !ok {
		t.Fatal("warmup read missed the cache")
	} else {
		f.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		f, _, ok := p.readFrame(read, 7)
		if !ok {
			t.Fatal("read missed the cache")
		}
		f.Release()
	})
	if race.Enabled {
		t.Skip("0-alloc assertion skipped under -race: sync.Pool drops Puts at random")
	}
	if avg != 0 {
		t.Fatalf("hit path allocates %.1f objects per 64 KiB read, want 0", avg)
	}
}

// BenchmarkProxyReadHit measures the cached-read frame build for a
// 64 KiB hit; ReportAllocs documents the 0 allocs/op claim in CI bench
// runs alongside the xrd read path.
func BenchmarkProxyReadHit(b *testing.B) {
	p, fh := allocRig(b)
	read := proto.Read{FH: fh, Off: 0, N: 64 << 10}
	b.ReportAllocs()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, ok := p.readFrame(read, 7)
		if !ok {
			b.Fatal("read missed the cache")
		}
		f.Release()
	}
}
