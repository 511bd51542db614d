package p4rt

import (
	"errors"
	"net"
	"sync"
)

// Server exposes a Device over TCP (Listen) or over caller-established
// connections (ServeConn) to P4Runtime clients.
type Server struct {
	device Device
	logf   func(format string, args ...any)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*connWriter
	closed bool
	wg     sync.WaitGroup

	pinOnce  sync.Once
	sessions replayCache
}

// replayCache remembers recent response payloads per client session so a
// retried request (same id, retry flag set) returns the original
// response instead of executing twice — the server half of the
// idempotency contract behind Client.SetRetry. Bounded per session and
// across sessions; retries arrive promptly, so a small window suffices.
type replayCache struct {
	mu       sync.Mutex
	sessions map[uint64]*sessionCache
	order    []uint64
}

type sessionCache struct {
	responses map[uint64][]byte
	order     []uint64
}

const (
	maxCachedSessions  = 128
	maxCachedResponses = 64
)

func (rc *replayCache) store(session, id uint64, payload []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.sessions == nil {
		rc.sessions = map[uint64]*sessionCache{}
	}
	sc := rc.sessions[session]
	if sc == nil {
		sc = &sessionCache{responses: map[uint64][]byte{}}
		rc.sessions[session] = sc
		rc.order = append(rc.order, session)
		if len(rc.order) > maxCachedSessions {
			delete(rc.sessions, rc.order[0])
			rc.order = rc.order[1:]
		}
	}
	if _, dup := sc.responses[id]; !dup {
		sc.order = append(sc.order, id)
		if len(sc.order) > maxCachedResponses {
			delete(sc.responses, sc.order[0])
			sc.order = sc.order[1:]
		}
	}
	sc.responses[id] = payload
}

func (rc *replayCache) lookup(session, id uint64) ([]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	sc := rc.sessions[session]
	if sc == nil {
		return nil, false
	}
	payload, ok := sc.responses[id]
	return payload, ok
}

func (rc *replayCache) reset() {
	rc.mu.Lock()
	rc.sessions = nil
	rc.order = nil
	rc.mu.Unlock()
}

type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (cw *connWriter) send(f frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return writeFrame(cw.conn, f)
}

// NewServer wraps a device. The optional logf receives connection errors;
// nil discards them.
func NewServer(device Device, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{device: device, logf: logf, conns: map[net.Conn]*connWriter{}}
}

// Listen starts serving on addr and returns the bound address (useful with
// ":0"). Serving proceeds on background goroutines until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("p4rt: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	s.startPacketIns()
	return ln.Addr(), nil
}

// startPacketIns launches the packet-in fan-out loop exactly once (both
// Listen and ServeConn need it).
func (s *Server) startPacketIns() {
	s.pinOnce.Do(func() {
		s.wg.Add(1)
		go s.packetInLoop()
	})
}

// ServeConn serves one caller-established connection (e.g. the backend
// half of an in-process pipe or a chaos wire) on a background
// goroutine until the connection or the server closes.
func (s *Server) ServeConn(conn net.Conn) error {
	cw := &connWriter{conn: conn}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errors.New("p4rt: server is closed")
	}
	s.conns[conn] = cw
	s.mu.Unlock()
	s.startPacketIns()
	s.wg.Add(1)
	go s.serveConn(conn, cw)
	return nil
}

// ResetSessions drops the response replay cache — what a full process
// restart of a real switch stack would do. The chaos wire's restart
// hook calls it alongside the device's state loss so recovery is tested
// against a genuinely amnesiac server.
func (s *Server) ResetSessions() { s.sessions.reset() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		cw := &connWriter{conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = cw
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn, cw)
	}
}

// packetInLoop fans punted packets out to every connected client.
func (s *Server) packetInLoop() {
	defer s.wg.Done()
	for pin := range s.device.PacketIns() {
		payload := encodePacketIn(&pin)
		s.mu.Lock()
		writers := make([]*connWriter, 0, len(s.conns))
		for _, cw := range s.conns { //detlint:allow maprange — each connection gets its own stream; no client observes the send order across connections
			writers = append(writers, cw)
		}
		s.mu.Unlock()
		for _, cw := range writers {
			if err := cw.send(frame{kind: kindPacketIn, payload: payload}); err != nil {
				s.logf("p4rt: packet-in send: %v", err)
			}
		}
	}
}

func (s *Server) serveConn(conn net.Conn, cw *connWriter) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var session uint64
	for {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		retry := f.kind&kindFlagRetry != 0
		f.kind &^= kindFlagRetry
		if f.kind == kindHello {
			session = f.id // adopt the client's session; no response
			continue
		}
		// A flagged retry of a request this session already executed is
		// answered from the replay cache: the first execution's effects
		// stand and its original response is re-sent, making retries
		// idempotent even when the first ACK was lost in flight.
		if retry && session != 0 {
			if payload, ok := s.sessions.lookup(session, f.id); ok {
				if err := cw.send(frame{kind: kindResponse, id: f.id, payload: payload}); err != nil {
					s.logf("p4rt: response send: %v", err)
					return
				}
				continue
			}
		}
		resp := s.dispatch(f)
		if session != 0 {
			s.sessions.store(session, f.id, resp.payload)
		}
		if err := cw.send(resp); err != nil {
			s.logf("p4rt: response send: %v", err)
			return
		}
	}
}

// dispatch handles one request frame and builds the response frame.
func (s *Server) dispatch(f frame) frame {
	respond := func(st Status, body []byte) frame {
		payload := encodeStatus(st)
		payload = append(payload, body...)
		return frame{kind: kindResponse, id: f.id, payload: payload}
	}
	switch f.kind {
	case kindSetPipeline:
		cfg, err := decodePipelineConfig(f.payload)
		if err != nil {
			return respond(Statusf(InvalidArgument, "%v", err), nil)
		}
		return respond(StatusFromError(s.device.SetForwardingPipelineConfig(cfg)), nil)
	case kindWrite:
		req, err := decodeWriteRequest(f.payload)
		if err != nil {
			return respond(Statusf(InvalidArgument, "%v", err), nil)
		}
		resp := s.device.Write(req)
		return respond(OKStatus, encodeWriteResponse(&resp))
	case kindRead:
		req, err := decodeReadRequest(f.payload)
		if err != nil {
			return respond(Statusf(InvalidArgument, "%v", err), nil)
		}
		resp, err := s.device.Read(req)
		if err != nil {
			return respond(StatusFromError(err), nil)
		}
		// The read-back is the largest response: encode it once, after
		// the status, into one buffer of its exact size.
		return frame{kind: kindResponse, id: f.id, payload: encodeReadResponse(encodeStatus(OKStatus), &resp)}
	case kindPacketOut:
		p, err := decodePacketOut(f.payload)
		if err != nil {
			return respond(Statusf(InvalidArgument, "%v", err), nil)
		}
		return respond(StatusFromError(s.device.PacketOut(p)), nil)
	case kindInject:
		dp, ok := s.device.(DataPlaneDevice)
		if !ok {
			return respond(Statusf(Unimplemented, "device has no data-plane injection"), nil)
		}
		req, err := decodeInjectRequest(f.payload)
		if err != nil {
			return respond(Statusf(InvalidArgument, "%v", err), nil)
		}
		res, err := dp.InjectFrame(req)
		if err != nil {
			return respond(StatusFromError(err), nil)
		}
		return respond(OKStatus, encodeInjectResult(&res))
	default:
		return respond(Statusf(Unimplemented, "unknown message kind %d", f.kind), nil)
	}
}

// Close stops the listener and all connections, then waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Note: the packetInLoop goroutine exits when the device closes its
	// packet-in channel; shutdown does not block on it.
	return nil
}
