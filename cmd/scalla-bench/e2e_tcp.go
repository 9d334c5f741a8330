package main

// The -net tcp mode: the e2e data-plane suite over real loopback
// sockets instead of the emulated in-process interconnect. Where the
// InProc numbers expose round-trip counts, these expose the kernel
// boundary — syscalls per frame — which is what the coalescing wire
// path attacks. The rows land in BENCH_<date>.json with a `.tcp`
// suffix, and the standalone `-net tcp` run prints them plus the wire
// batching counters (frames per writev, flush reasons) when the
// transport exposes them.

import (
	"fmt"
	"net"

	"scalla/internal/store"
	"scalla/internal/transport"
)

// freeTCPAddr reserves an ephemeral loopback port and returns its
// address. The port is released before use, as in the TCP tests.
func freeTCPAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// newE2ERigTCP stands the 1-manager/1-server cluster up over real
// loopback sockets.
func newE2ERigTCP(st *store.Store) (*e2eRig, error) {
	mgrData, err := freeTCPAddr()
	if err != nil {
		return nil, err
	}
	mgrCtl, err := freeTCPAddr()
	if err != nil {
		return nil, err
	}
	srvData, err := freeTCPAddr()
	if err != nil {
		return nil, err
	}
	return newE2ERigNet(transport.TCP(), st, mgrData, mgrCtl, srvData)
}

// benchE2ETCP runs the real-socket e2e suite: lock-step RPC, pipelined
// RPC, and sequential read with readahead 4.
func benchE2ETCP(quick bool) ([]BenchResult, error) {
	rig, err := newE2ERigTCP(store.New(store.Config{}))
	if err != nil {
		return nil, err
	}
	defer rig.stop()

	var out []BenchResult
	rpcs := 4000
	if quick {
		rpcs = 800
	}
	single, err := benchRPC(rig, 1, rpcs, ".tcp")
	if err != nil {
		return nil, err
	}
	out = append(out, single)

	base, _ := transport.WireOf(rig.net)
	pipelined, err := benchRPC(rig, 8, rpcs, ".tcp")
	if err != nil {
		return nil, err
	}
	after, _ := transport.WireOf(rig.net)
	pipelined.FramesPerWritev = after.Sub(base).MeanBatch()
	out = append(out, pipelined)

	fileMB := 8
	if quick {
		fileMB = 2
	}
	r, err := benchReadSeq(rig, 4, fileMB, ".tcp")
	if err != nil {
		return nil, err
	}
	out = append(out, r)
	return out, nil
}

// runNetTCP is the standalone `-net tcp` entry point: it runs the
// real-socket suite and prints the rows plus the wire batching summary.
func runNetTCP(quick bool) error {
	rows, err := benchE2ETCP(quick)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-22s n=%-8d p50=%8.1fµs p99=%8.1fµs %10.0f ops/s",
			r.Op, r.N, r.P50US, r.P99US, r.OpsPerSec)
		if r.MBPerSec > 0 {
			fmt.Printf(" %8.1f MB/s", r.MBPerSec)
		}
		if r.FramesPerWritev > 0 {
			fmt.Printf("  %5.2f frames/writev", r.FramesPerWritev)
		}
		fmt.Println()
	}
	return nil
}
