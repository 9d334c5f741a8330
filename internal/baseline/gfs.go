// Package baseline implements the comparison systems the paper argues
// against, so the benchmark harness can reproduce its claims:
//
//   - a GFS/AFS-style central master to which every server must upload
//     its full file manifest at registration (Section V contrasts this
//     with Scalla's path-prefix-only login);
//   - a full-scan TTL cache, the naive alternative to the sliding-window
//     eviction of Section III-A3;
//   - the respond-always protocol lives in the cmsd package as a server
//     flag (NodeConfig.RespondAlways), since it shares the query plane.
package baseline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"scalla/internal/transport"
)

// Manifest protocol opcodes.
const (
	opRegister   = 1 // server → master: name, addr, batch of paths
	opRegisterOK = 2
	opLookup     = 3 // client → master: path
	opLocations  = 4 // master → client: server addresses
	opDone       = 5 // server → master: manifest complete
	opDoneOK     = 6
)

var errBadFrame = errors.New("baseline: malformed frame")

// GFSMaster is a central location master in the style the paper's
// Section V describes for GFS: it learns every file on every server at
// registration time and answers lookups from a complete map.
type GFSMaster struct {
	net  transport.Network
	addr string

	mu      sync.Mutex
	files   map[string][]string // path → server data addresses
	servers map[string]bool     // fully registered servers
	entries int64

	l       transport.Listener
	stopped bool
}

// NewGFSMaster returns an unstarted master that will listen on addr.
func NewGFSMaster(net transport.Network, addr string) *GFSMaster {
	return &GFSMaster{
		net: net, addr: addr,
		files:   make(map[string][]string),
		servers: make(map[string]bool),
	}
}

// Start binds the listener and begins serving.
func (m *GFSMaster) Start() error {
	l, err := m.net.Listen(m.addr)
	if err != nil {
		return err
	}
	m.l = l
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go m.serve(c)
		}
	}()
	return nil
}

// Stop closes the listener.
func (m *GFSMaster) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	if m.l != nil {
		m.l.Close()
	}
}

// Entries returns the number of (path, server) pairs the master holds.
func (m *GFSMaster) Entries() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries
}

// ReadyServers returns how many servers have completed registration.
func (m *GFSMaster) ReadyServers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, done := range m.servers {
		if done {
			n++
		}
	}
	return n
}

func (m *GFSMaster) serve(c transport.Conn) {
	defer c.Close()
	for {
		f, err := c.RecvFrame()
		if err != nil {
			return
		}
		reply, err := m.handle(f.Bytes())
		f.Release()
		if err != nil {
			return
		}
		if err := c.Send(reply); err != nil {
			return
		}
	}
}

func (m *GFSMaster) handle(frame []byte) ([]byte, error) {
	if len(frame) < 1 {
		return nil, errBadFrame
	}
	switch frame[0] {
	case opRegister:
		name, rest, err := getStr(frame[1:])
		if err != nil {
			return nil, err
		}
		addr, rest, err := getStr(rest)
		if err != nil {
			return nil, err
		}
		if len(rest) < 4 {
			return nil, errBadFrame
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		m.mu.Lock()
		if _, known := m.servers[name]; !known {
			m.servers[name] = false
		}
		for i := uint32(0); i < n; i++ {
			var p string
			p, rest, err = getStr(rest)
			if err != nil {
				m.mu.Unlock()
				return nil, err
			}
			m.files[p] = append(m.files[p], addr)
			m.entries++
		}
		m.mu.Unlock()
		return []byte{opRegisterOK}, nil
	case opDone:
		name, _, err := getStr(frame[1:])
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.servers[name] = true
		m.mu.Unlock()
		return []byte{opDoneOK}, nil
	case opLookup:
		p, _, err := getStr(frame[1:])
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		addrs := m.files[p]
		m.mu.Unlock()
		out := []byte{opLocations}
		out = binary.BigEndian.AppendUint32(out, uint32(len(addrs)))
		for _, a := range addrs {
			out = putStr(out, a)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("baseline: unknown op %d", frame[0])
	}
}

func putStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func getStr(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, errBadFrame
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(len(b)-4) < uint64(n) {
		return "", nil, errBadFrame
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// RegisterManifest uploads a server's complete file list to the master
// in batches, then marks the registration complete — the heavyweight
// registration Scalla avoids. It returns the number of frames sent.
func RegisterManifest(net transport.Network, master, name, dataAddr string, paths []string, batch int) (int, error) {
	if batch <= 0 {
		batch = 4096
	}
	c, err := net.Dial(master)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	frames := 0
	for start := 0; start < len(paths) || start == 0; start += batch {
		end := start + batch
		if end > len(paths) {
			end = len(paths)
		}
		chunk := paths[start:end]
		frame := []byte{opRegister}
		frame = putStr(frame, name)
		frame = putStr(frame, dataAddr)
		frame = binary.BigEndian.AppendUint32(frame, uint32(len(chunk)))
		for _, p := range chunk {
			frame = putStr(frame, p)
		}
		if err := c.Send(frame); err != nil {
			return frames, err
		}
		frames++
		reply, err := c.RecvFrame()
		if err != nil {
			return frames, err
		}
		b := reply.Bytes()
		ok := len(b) > 0 && b[0] == opRegisterOK
		reply.Release()
		if !ok {
			return frames, errBadFrame
		}
		if end >= len(paths) {
			break
		}
	}
	done := append([]byte{opDone}, putStr(nil, name)...)
	if err := c.Send(done); err != nil {
		return frames, err
	}
	frames++
	reply, err := c.RecvFrame()
	if err != nil {
		return frames, err
	}
	reply.Release()
	return frames, nil
}

// Lookup asks the master for the servers holding path.
func Lookup(net transport.Network, master, path string) ([]string, error) {
	c, err := net.Dial(master)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	frame := append([]byte{opLookup}, putStr(nil, path)...)
	if err := c.Send(frame); err != nil {
		return nil, err
	}
	f, err := c.RecvFrame()
	if err != nil {
		return nil, err
	}
	defer f.Release()
	reply := f.Bytes()
	if len(reply) < 5 || reply[0] != opLocations {
		return nil, errBadFrame
	}
	n := binary.BigEndian.Uint32(reply[1:])
	rest := reply[5:]
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		var a string
		a, rest, err = getStr(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
