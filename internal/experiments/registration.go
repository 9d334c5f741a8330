package experiments

import (
	"fmt"
	"sync"
	"time"

	"scalla"
	"scalla/internal/baseline"
	"scalla/internal/transport"
)

// E14Registration reproduces Section V: Scalla registration carries
// only path prefixes, so a restarted cluster of many servers serves
// files within seconds; manifest-based (GFS-style) registration must
// move every file name through the master first.
func E14Registration(s Scale) Table {
	nServers := s.pick(8, 32)
	filesPer := s.pick(2_000, 20_000)
	t := Table{
		ID:     "E14",
		Title:  "cluster restart: prefix login vs full-manifest registration",
		Claim:  "registration is extremely light; clusters serve within seconds of restart (V)",
		Header: []string{"scheme", "servers", "files/server", "time to service", "frames", "bytes on wire"},
	}

	paths := func(srv int) []string {
		out := make([]string, filesPer)
		for i := range out {
			out[i] = fmt.Sprintf("/store/e14/s%02d/%s", srv, hepPath(i))
		}
		return out
	}

	// ---- Scalla arm -------------------------------------------------
	cn := transport.NewInProc(transport.InProcConfig{})
	start := time.Now()
	cl, err := scalla.StartCluster(scalla.Options{
		Servers:    nServers,
		Net:        cn,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	// Populate the stores (out of band: detector data was already on
	// disk before the restart; it is NOT part of registration).
	for srv := 0; srv < nServers; srv++ {
		for _, p := range paths(srv) {
			cl.Store(srv).Put(p, []byte("x"))
		}
	}
	// "Time to service": the cluster formed and a cold file resolves.
	c := cl.NewClient()
	target := paths(nServers / 2)[filesPer/2]
	if _, err := c.Locate(target, false); err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("scalla first resolve: %v", err))
	}
	scallaTime := time.Since(start)
	scallaWire := cn.Wire()
	scallaFrames := scallaWire.FramesOut
	scallaBytes := scallaWire.BytesOut
	c.Close()
	cl.Stop()
	t.Rows = append(t.Rows, []string{
		"scalla prefix login", fmt.Sprint(nServers), fmt.Sprint(filesPer),
		fmtMs(scallaTime), fmt.Sprint(scallaFrames), fmt.Sprint(scallaBytes),
	})

	// ---- GFS-style arm ----------------------------------------------
	gn := transport.NewInProc(transport.InProcConfig{})
	master := baseline.NewGFSMaster(gn, "master")
	if err := master.Start(); err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	defer master.Stop()
	start = time.Now()
	var wg sync.WaitGroup
	for srv := 0; srv < nServers; srv++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("srv%02d", srv)
			if _, err := baseline.RegisterManifest(gn, "master", name, name+":data", paths(srv), 4096); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("gfs register %s: %v", name, err))
			}
		}()
	}
	wg.Wait()
	if _, err := baseline.Lookup(gn, "master", target); err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("gfs lookup: %v", err))
	}
	gfsTime := time.Since(start)
	gfsWire := gn.Wire()
	t.Rows = append(t.Rows, []string{
		"gfs-style manifest", fmt.Sprint(nServers), fmt.Sprint(filesPer),
		fmtMs(gfsTime), fmt.Sprint(gfsWire.FramesOut), fmt.Sprint(gfsWire.BytesOut),
	})
	if scallaBytes > 0 {
		t.Rows = append(t.Rows, []string{"wire-bytes ratio", "", "",
			"", "", fmt.Sprintf("%.0fx", float64(gfsWire.BytesOut)/float64(scallaBytes))})
	}
	t.Notes = append(t.Notes,
		"scalla's wire cost is independent of file count; the manifest scheme moves every name")
	return t
}
