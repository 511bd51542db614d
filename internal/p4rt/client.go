package p4rt

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// sessionCounter hands out process-unique client session ids for the
// server's response replay cache. Session ids never enter campaign
// results; they only scope the (session, request id) dedup key.
var sessionCounter atomic.Uint64

// pendingCall is one in-flight RPC's response slot, tagged with the
// connection generation it was issued on so a dying transport loop only
// fails the calls that were actually riding on its connection.
type pendingCall struct {
	ch  chan RawFrame
	gen int
}

// Client is a P4Runtime client over a stream transport (TCP or an
// in-process pipe). It implements Device, so code written against an
// in-process switch runs unchanged against a remote one.
//
// By default an RPC fails on the first transport error. SetRetry turns
// on in-RPC retry: a timed-out or connection-lost RPC is re-sent with
// the same request id and a retry flag, so the server's replay cache
// can deduplicate work it already applied (the retried Write is
// idempotent even when the original was applied and only its ACK was
// lost). SetRedial additionally lets the client replace a dead
// connection between attempts.
type Client struct {
	writeMu sync.Mutex // serializes frame writes on the current conn
	// helloGen is the connection generation the session hello was last
	// sent on; guarded by writeMu (hellos are writes).
	helloGen int

	mu      sync.Mutex
	conn    net.Conn
	gen     int // bumped by every successful redial
	nextID  uint64
	pending map[uint64]pendingCall
	closed  bool
	redial  func() (net.Conn, error)
	retry   Backoff
	retryOn bool

	session uint64

	packetIns chan PacketIn
	pinOnce   sync.Once
	// DroppedPacketIns counts packet-ins discarded because the consumer
	// fell behind; read it only after Close.
	DroppedPacketIns int

	// timeout is the per-RPC deadline in nanoseconds, atomic so
	// SetTimeout is safe while RPCs are in flight (the parallel engine
	// tunes per-shard clients concurrently).
	timeout atomic.Int64
}

var _ Device = (*Client)(nil)

// Transport-level RPC failures. Both are transient: with SetRetry
// configured the client re-sends the RPC instead of surfacing them.
var (
	errTimeout    = errors.New("p4rt: RPC timeout")
	errConnClosed = errors.New("p4rt: connection closed")
	errClosed     = errors.New("p4rt: client is closed")
)

// Dial connects to a P4Runtime server. For targets that may be mid-restart,
// Reconnect wraps this dial path with capped exponential backoff.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("p4rt: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (TCP, net.Pipe, or a chaos
// wire); the transport loop starts immediately.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:      conn,
		helloGen:  -1,
		pending:   map[uint64]pendingCall{},
		packetIns: make(chan PacketIn, 1024),
		session:   sessionCounter.Add(1),
	}
	c.timeout.Store(int64(30 * time.Second))
	go c.readLoop(conn, 0)
	return c
}

// SetRedial installs a dial function used to replace a dead connection
// between RPC attempts (only consulted when SetRetry has enabled
// in-RPC retry). Configure it before issuing RPCs.
func (c *Client) SetRedial(dial func() (net.Conn, error)) {
	c.mu.Lock()
	c.redial = dial
	c.mu.Unlock()
}

// SetRedialAddr is SetRedial for a plain TCP address.
func (c *Client) SetRedialAddr(addr string) {
	c.SetRedial(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 10*time.Second)
	})
}

// SetRetry enables in-RPC retry with the given backoff schedule (zero
// value = defaults). Retried frames carry the same request id plus a
// retry flag, making them idempotent against a server with a replay
// cache. Configure it before issuing RPCs.
func (c *Client) SetRetry(b Backoff) {
	c.mu.Lock()
	c.retry = b.withDefaults()
	c.retryOn = true
	c.mu.Unlock()
}

// closePacketIns closes the packet-in stream exactly once.
func (c *Client) closePacketIns() {
	c.pinOnce.Do(func() { close(c.packetIns) })
}

// readLoop pumps one connection generation. On exit it fails only the
// pending calls issued on this generation — calls already re-homed to a
// redialed connection keep waiting on the new loop.
func (c *Client) readLoop(conn net.Conn, gen int) {
	defer func() {
		c.mu.Lock()
		for id, p := range c.pending {
			if p.gen == gen {
				close(p.ch)
				delete(c.pending, id)
			}
		}
		// Without a redial path (or once Close ran) a dead connection is
		// the end of the packet-in stream, as before. A redialing client
		// keeps the stream open across connection generations.
		done := c.closed || c.redial == nil
		c.mu.Unlock()
		if done {
			c.closePacketIns()
		}
	}()
	br := bufio.NewReader(conn)
	for {
		f, err := ReadRawFrame(br)
		if err != nil {
			return
		}
		switch f.Kind {
		case FrameResponse:
			c.mu.Lock()
			p, ok := c.pending[f.ID]
			if ok {
				delete(c.pending, f.ID)
			}
			closed := c.closed
			c.mu.Unlock()
			if ok && !closed {
				p.ch <- f
			}
		case FramePacketIn:
			pin, err := decodePacketIn(f.Payload)
			if err != nil {
				continue
			}
			select {
			case c.packetIns <- pin:
			default:
				c.DroppedPacketIns++
			}
		}
	}
}

// reconnect replaces the connection if it is still at fromGen; a
// concurrent RPC may already have redialed, in which case this is a
// no-op. Returns the error of a failed dial.
func (c *Client) reconnect(fromGen int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	if c.gen != fromGen {
		c.mu.Unlock()
		return nil // someone else already replaced it
	}
	redial := c.redial
	c.mu.Unlock()
	if redial == nil {
		return errConnClosed
	}
	conn, err := redial()
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed || c.gen != fromGen {
		c.mu.Unlock()
		conn.Close()
		return nil
	}
	old := c.conn
	c.conn = conn
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	old.Close()
	go c.readLoop(conn, gen)
	return nil
}

// call sends a request and waits for its response payload, retrying
// transient transport failures when SetRetry configured a schedule.
func (c *Client) call(kind uint8, payload []byte) (Status, []byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Status{}, nil, errClosed
	}
	c.nextID++
	id := c.nextID
	retryOn, b := c.retryOn, c.retry
	c.mu.Unlock()

	attempts := 1
	if retryOn {
		attempts = b.Attempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			b.Sleep(b.Delay(attempt))
		}
		st, body, gen, err := c.attempt(kind, id, payload, attempt > 0, retryOn)
		if err == nil {
			return st, body, nil
		}
		if !isTransient(err) {
			return Status{}, nil, err
		}
		lastErr = err
		// A timeout may just mean a slow response on a live connection;
		// only a dead connection warrants a redial. Redial failures roll
		// into the next attempt (whose send then fails and retries).
		if !errors.Is(err, errTimeout) {
			if rerr := c.reconnect(gen); rerr != nil && errors.Is(rerr, errClosed) {
				return Status{}, nil, rerr
			}
		}
	}
	if attempts > 1 {
		return Status{}, nil, fmt.Errorf("p4rt: RPC failed after %d attempts: %w", attempts, lastErr)
	}
	return Status{}, nil, lastErr
}

// attempt performs one send-and-wait round for an RPC. It returns the
// connection generation it used, so the caller can target its redial.
func (c *Client) attempt(kind uint8, id uint64, payload []byte, isRetry, retryOn bool) (Status, []byte, int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Status{}, nil, 0, errClosed
	}
	conn, gen := c.conn, c.gen
	ch := make(chan RawFrame, 1)
	c.pending[id] = pendingCall{ch: ch, gen: gen}
	c.mu.Unlock()

	k := kind
	if isRetry {
		k |= FrameRetryFlag
	}
	c.writeMu.Lock()
	var werr error
	if retryOn && c.helloGen != gen {
		// First frame on a new connection: announce the session so the
		// server's replay cache spans reconnects.
		if werr = WriteRawFrame(conn, RawFrame{Kind: FrameHello, ID: c.session}); werr == nil {
			c.helloGen = gen
		}
	}
	if werr == nil {
		werr = WriteRawFrame(conn, RawFrame{Kind: k, ID: id, Payload: payload})
	}
	c.writeMu.Unlock()
	if werr != nil {
		c.unregister(id)
		return Status{}, nil, gen, fmt.Errorf("%w: send: %v", errConnClosed, werr)
	}

	timer := time.NewTimer(time.Duration(c.timeout.Load()))
	defer timer.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			return Status{}, nil, gen, errConnClosed
		}
		st, body, err := decodeStatus(f.Payload)
		if err != nil {
			return Status{}, nil, gen, err
		}
		return st, body, gen, nil
	case <-timer.C:
		// Reap the abandoned call: drop the pending entry so the
		// response slot cannot linger, and drain a response that raced
		// in between the timer firing and the unregister.
		c.unregister(id)
		select {
		case <-ch:
		default:
		}
		return Status{}, nil, gen, errTimeout
	}
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// isTransient reports whether an RPC error is a transport-level failure
// worth retrying (vs. a protocol error or a closed client).
func isTransient(err error) bool {
	return errors.Is(err, errTimeout) || errors.Is(err, errConnClosed)
}

// SetForwardingPipelineConfig implements Device.
func (c *Client) SetForwardingPipelineConfig(cfg ForwardingPipelineConfig) error {
	st, _, err := c.call(FrameSetPipeline, encodePipelineConfig(&cfg))
	if err != nil {
		return err
	}
	return st.Err()
}

// Write implements Device. Transport errors surface as a single INTERNAL
// status covering the whole batch.
func (c *Client) Write(req WriteRequest) WriteResponse {
	st, body, err := c.call(FrameWrite, encodeWriteRequest(&req))
	if err != nil {
		return WriteResponse{Statuses: []Status{Statusf(Internal, "transport: %v", err)}}
	}
	if st.Code != OK {
		return WriteResponse{Statuses: []Status{st}}
	}
	resp, err := decodeWriteResponse(body)
	if err != nil {
		return WriteResponse{Statuses: []Status{Statusf(Internal, "decode: %v", err)}}
	}
	return resp
}

// Read implements Device.
func (c *Client) Read(req ReadRequest) (ReadResponse, error) {
	st, body, err := c.call(FrameRead, encodeReadRequest(&req))
	if err != nil {
		return ReadResponse{}, err
	}
	if err := st.Err(); err != nil {
		return ReadResponse{}, err
	}
	return decodeReadResponse(body)
}

// PacketOut implements Device.
func (c *Client) PacketOut(p PacketOut) error {
	st, _, err := c.call(FramePacketOut, encodePacketOut(&p))
	if err != nil {
		return err
	}
	return st.Err()
}

// PacketIns implements Device.
func (c *Client) PacketIns() <-chan PacketIn { return c.packetIns }

// PendingRPCs reports the number of in-flight response slots — the
// timeout-path leak detector in the tests watches it drain to zero.
func (c *Client) PendingRPCs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// SetTimeout adjusts the per-RPC timeout. Safe to call concurrently
// with in-flight RPCs; calls already waiting keep the deadline they
// started with.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}
