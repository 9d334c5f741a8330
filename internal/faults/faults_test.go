package faults

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"scalla/internal/obs"
	"scalla/internal/transport"
)

// sink accepts one connection on net at addr and collects frames until
// it sees the sentinel "END" (or the connection dies).
type sink struct {
	frames chan string
	done   chan struct{}
}

func startSink(t *testing.T, net transport.Network, addr string) *sink {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%s): %v", addr, err)
	}
	s := &sink{frames: make(chan string, 1024), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer l.Close()
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			f, err := c.RecvFrame()
			if err != nil {
				return
			}
			msg := string(f.Bytes())
			f.Release()
			s.frames <- msg
			if msg == "END" {
				return
			}
		}
	}()
	return s
}

// collect drains the sink after its loop finished, dropping the sentinel.
func (s *sink) collect(t *testing.T) []string {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("sink did not finish (END lost?)")
	}
	close(s.frames)
	var out []string
	for f := range s.frames {
		if f != "END" {
			out = append(out, f)
		}
	}
	return out
}

// run pushes n numbered frames through a fresh fault network under plan
// and seed, then lifts the plan and sends the sentinel, returning what
// arrived (in order).
func run(t *testing.T, seed int64, plan Plan, n int) []string {
	t.Helper()
	inner := transport.NewInProc(transport.InProcConfig{})
	fn := Wrap(inner, Config{Seed: seed, Plan: plan})
	s := startSink(t, fn, "peer")
	c, err := fn.Dial("peer")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if err := c.Send([]byte(fmt.Sprintf("f%03d", i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	fn.SetPlan(Plan{})
	if err := c.Send([]byte("END")); err != nil {
		t.Fatalf("Send END: %v", err)
	}
	return s.collect(t)
}

// TestDropDeterministicUnderSeed pins the chaos suite's reproducibility
// contract: equal seeds drop the same frames, different seeds diverge.
func TestDropDeterministicUnderSeed(t *testing.T) {
	plan := Plan{Drop: 0.5}
	a := run(t, 7, plan, 200)
	b := run(t, 7, plan, 200)
	c := run(t, 8, plan, 200)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("drop 0.5 delivered %d/200 frames; injector inert or total", len(a))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("same seed, different survivors:\n%v\n%v", a, b)
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Errorf("different seeds, identical survivors")
	}
}

func TestDuplicate(t *testing.T) {
	got := run(t, 1, Plan{Dup: 1}, 3)
	want := []string{"f000", "f000", "f001", "f001", "f002", "f002"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	// Reorder=1: frame 0 is held, frame 1 triggers a second reorder
	// decision but a frame is already held, so it passes through and
	// flushes frame 0 after it — an adjacent swap.
	got := run(t, 1, Plan{Reorder: 1}, 2)
	want := []string{"f001", "f000"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDelayHoldsFrame(t *testing.T) {
	inner := transport.NewInProc(transport.InProcConfig{})
	fn := Wrap(inner, Config{Seed: 1, Plan: Plan{Delay: 1, DelayMin: 30 * time.Millisecond}})
	s := startSink(t, fn, "peer")
	c, err := fn.Dial("peer")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Send([]byte("slow")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case f := <-s.frames:
		if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
			t.Fatalf("frame %q arrived after %v, want >= 30ms", f, elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed frame never arrived")
	}
	if st := fn.Stats(); st.Delayed != 1 {
		t.Fatalf("Stats.Delayed = %d, want 1", st.Delayed)
	}
}

func TestSeverHealLifecycle(t *testing.T) {
	inner := transport.NewInProc(transport.InProcConfig{})
	fn := Wrap(inner, Config{Seed: 1})
	l, err := fn.Listen("victim")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := fn.Dial("victim")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	srv := <-accepted

	fn.Sever("victim")
	if !fn.Severed("victim") {
		t.Fatal("Severed = false after Sever")
	}
	// Both endpoints of the live link must observe the cut.
	if _, err := srv.RecvFrame(); err == nil {
		t.Fatal("server RecvFrame succeeded on severed link")
	}
	if _, err := fn.Dial("victim"); err == nil {
		t.Fatal("Dial succeeded to severed address")
	}
	st := fn.Stats()
	if st.RefusedDials != 1 {
		t.Errorf("Stats.RefusedDials = %d, want 1", st.RefusedDials)
	}
	if st.SeveredConns == 0 {
		t.Errorf("Stats.SeveredConns = 0, want > 0")
	}

	fn.Heal("victim")
	go func() {
		if c2, err := l.Accept(); err == nil {
			c2.Close()
		}
	}()
	c3, err := fn.Dial("victim")
	if err != nil {
		t.Fatalf("Dial after Heal: %v", err)
	}
	c3.Close()
	c.Close()
}

func TestLinkPlanOverridesGlobal(t *testing.T) {
	inner := transport.NewInProc(transport.InProcConfig{})
	fn := Wrap(inner, Config{Seed: 1, Plan: Plan{Drop: 1}})
	fn.SetLinkPlan("clean", Plan{}) // this link is exempt from the global drop-all
	s := startSink(t, fn, "clean")
	c, err := fn.Dial("clean")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send([]byte("ok")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := c.Send([]byte("END")); err != nil {
		t.Fatalf("Send END: %v", err)
	}
	got := s.collect(t)
	if len(got) != 1 || got[0] != "ok" {
		t.Fatalf("got %v, want [ok]", got)
	}
	fn.ClearLinkPlan("clean")
	if p := fn.planFor("clean"); p.Drop != 1 {
		t.Fatalf("after ClearLinkPlan, planFor = %+v, want global drop-all", p)
	}
}

func TestFaultsVisibleInTracer(t *testing.T) {
	tr := obs.NewTracer(64, nil)
	tr.SetEnabled(true)
	inner := transport.NewInProc(transport.InProcConfig{})
	fn := Wrap(inner, Config{Seed: 1, Plan: Plan{Drop: 1}, Tracer: tr})
	s := startSink(t, fn, "peer")
	c, err := fn.Dial("peer")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send([]byte("doomed")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	fn.SetPlan(Plan{})
	if err := c.Send([]byte("END")); err != nil {
		t.Fatalf("Send END: %v", err)
	}
	s.collect(t)
	var found bool
	for _, sp := range tr.Spans(0) {
		if sp.Op == "fault" && sp.Path == "peer" && sp.Outcome == "drop" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fault/drop span recorded; spans: %+v", tr.Spans(0))
	}
}
