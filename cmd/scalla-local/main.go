// scalla-local boots a complete Scalla cluster over TCP loopback in one
// process — a manager plus N data servers — and blocks until
// interrupted. Handy for poking at a live cluster with scalla-cli:
//
//	scalla-local -servers 4 &
//	scalla-cli -mgr localhost:1094 put /store/x local.bin
//	scalla-cli -mgr localhost:1094 locate /store/x
//	scalla-cli -servers localhost:10000,localhost:10001 ls /
package main

import (
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scalla/internal/cache"
	"scalla/internal/cmsd"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/store"
	"scalla/internal/transport"
)

func main() {
	servers := flag.Int("servers", 4, "number of data servers")
	mgrData := flag.String("mgr-data", "127.0.0.1:1094", "manager data address")
	mgrCtl := flag.String("mgr-ctl", "127.0.0.1:1213", "manager control address")
	basePort := flag.Int("base-port", 10000, "first server data port")
	fullDelay := flag.Duration("full-delay", time.Second, "full delay")
	stageDelay := flag.Duration("stage-delay", 2*time.Second, "simulated staging delay")
	storeRoot := flag.String("store-root", "", "disk-backed store root; each server gets <root>/srvN (empty = in-memory)")
	fsync := flag.String("fsync", "interval", "disk fsync policy: never | interval | always (see STORAGE.md)")
	fsyncEvery := flag.Duration("fsync-every", time.Second, "flush period for -fsync=interval")
	admin := flag.String("admin", "", "manager admin/status HTTP address (/statusz /metricsz /tracez)")
	summary := flag.String("summary", "", "manager summary-stream UDP target (host:port)")
	summaryEvery := flag.Duration("summary-every", 5*time.Second, "summary frame period")
	flag.Parse()

	net := transport.TCP()
	mgrCfg := cmsd.NodeConfig{
		Name: "mgr", Role: proto.RoleManager,
		DataAddr: *mgrData, CtlAddr: *mgrCtl, Net: net,
		Core: cmsd.Config{
			Cache:     cache.Config{},
			Queue:     respq.Config{},
			FullDelay: *fullDelay,
		},
		Tracer: obs.NewTracer(0, nil),
	}
	if *summary != "" {
		sink, err := obs.NewUDPSink(*summary)
		if err != nil {
			log.Fatal(err)
		}
		mgrCfg.Summary = sink
		mgrCfg.SummaryEvery = *summaryEvery
	}
	mgr, err := cmsd.NewNode(mgrCfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		log.Fatal(err)
	}
	defer mgr.Stop()

	var nodes []*cmsd.Node
	var addrs []string
	for i := 0; i < *servers; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", *basePort+i)
		scfg := store.Config{StageDelay: *stageDelay}
		if *storeRoot != "" {
			scfg.Root = fmt.Sprintf("%s/srv%d", *storeRoot, i)
			scfg.Fsync = store.FsyncPolicy(*fsync)
			scfg.FsyncEvery = *fsyncEvery
		}
		st, err := store.Open(scfg)
		if err != nil {
			log.Fatalf("scalla-local: open store for srv%d: %v", i, err)
		}
		defer st.Close()
		srv, err := cmsd.NewNode(cmsd.NodeConfig{
			Name: fmt.Sprintf("srv%d", i), Role: proto.RoleServer,
			DataAddr: addr,
			Parents:  []string{*mgrCtl}, Prefixes: []string{"/"},
			Net:   net,
			Store: st,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		defer srv.Stop()
		nodes = append(nodes, srv)
		addrs = append(addrs, addr)
	}
	deadline := time.Now().Add(15 * time.Second)
	for mgr.Core().Table().Count() < *servers {
		if time.Now().After(deadline) {
			log.Fatal("scalla-local: cluster never formed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if *admin != "" {
		l, err := stdnet.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("scalla-local: admin listen: %v", err)
		}
		defer l.Close()
		go http.Serve(l, mgr.AdminHandler())
		fmt.Printf("scalla-local: admin endpoint on http://%s/statusz\n", l.Addr())
	}

	fmt.Printf("scalla-local: cluster up\n")
	fmt.Printf("  manager data : %s\n", *mgrData)
	fmt.Printf("  manager ctl  : %s\n", *mgrCtl)
	fmt.Printf("  servers      : %s\n", strings.Join(addrs, ","))
	fmt.Printf("try:\n")
	fmt.Printf("  scalla-cli -mgr %s put /store/hello README.md\n", *mgrData)
	fmt.Printf("  scalla-cli -mgr %s cat /store/hello\n", *mgrData)
	fmt.Printf("  scalla-cli -servers %s ls /\n", strings.Join(addrs, ","))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("scalla-local: shutting down")
	_ = nodes
}
