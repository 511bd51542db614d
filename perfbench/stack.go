package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
)

// countingConn counts the bytes a p4rt client sends (tx) and receives
// (rx) on its connection.
type countingConn struct {
	net.Conn
	tx, rx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// stack is one switch under test as switchd deploys it: a simulated
// switch served by a p4rt server on loopback TCP, reached through one
// client connection.
type stack struct {
	sw     *switchsim.Switch
	srv    *p4rt.Server
	conn   *countingConn
	client *p4rt.Client
}

func startStack(role string) (*stack, error) {
	sw := switchsim.New(role)
	srv := p4rt.NewServer(sw, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		sw.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	raw, err := net.DialTimeout("tcp", addr.String(), 10*time.Second)
	if err != nil {
		srv.Close()
		sw.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	cc := &countingConn{Conn: raw}
	return &stack{sw: sw, srv: srv, conn: cc, client: p4rt.NewClient(cc)}, nil
}

func (s *stack) close() {
	s.client.Close()
	s.srv.Close()
	s.sw.Close()
}

// device is the p4rt.Device and data-plane device handed to the harness.
// It forwards every call to the stack's client, counts the updates
// written and, when rec is set, wraps each call in a span and keeps the
// call's request and response for the layer replays.
type device struct {
	c       *p4rt.Client
	updates atomic.Int64

	rec    *recorder
	parent int // span id of the enclosing round
	calls  []call
}

// call is one recorded device call, in the order the calls were made.
type call struct {
	kind     string // "pipeline", "write", "read", "packet-out", "inject"
	cfg      p4rt.ForwardingPipelineConfig
	write    p4rt.WriteRequest
	resp     p4rt.WriteResponse
	read     p4rt.ReadResponse
	readErr  error
	out      p4rt.PacketOut
	inject   p4rt.InjectRequest
	injected p4rt.InjectResult
}

var (
	_ p4rt.Device          = (*device)(nil)
	_ p4rt.DataPlaneDevice = (*device)(nil)
)

func (d *device) span(name string) int {
	if d.rec == nil {
		return -1
	}
	return d.rec.begin(name, "p4rt", d.parent, tidDevice)
}

func (d *device) done(id int, c call) {
	if d.rec == nil {
		return
	}
	d.rec.end(id)
	d.calls = append(d.calls, c)
}

func (d *device) SetForwardingPipelineConfig(cfg p4rt.ForwardingPipelineConfig) error {
	id := d.span("p4rt.SetForwardingPipelineConfig")
	err := d.c.SetForwardingPipelineConfig(cfg)
	d.done(id, call{kind: "pipeline", cfg: cfg})
	return err
}

func (d *device) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	d.updates.Add(int64(len(req.Updates)))
	id := d.span("p4rt.Write")
	resp := d.c.Write(req)
	d.done(id, call{kind: "write", write: req, resp: resp})
	return resp
}

func (d *device) Read(req p4rt.ReadRequest) (p4rt.ReadResponse, error) {
	id := d.span("p4rt.Read")
	resp, err := d.c.Read(req)
	d.done(id, call{kind: "read", read: resp, readErr: err})
	return resp, err
}

func (d *device) PacketOut(p p4rt.PacketOut) error {
	id := d.span("p4rt.PacketOut")
	err := d.c.PacketOut(p)
	d.done(id, call{kind: "packet-out", out: p})
	return err
}

func (d *device) PacketIns() <-chan p4rt.PacketIn { return d.c.PacketIns() }

func (d *device) InjectFrame(req p4rt.InjectRequest) (p4rt.InjectResult, error) {
	id := d.span("p4rt.InjectFrame")
	res, err := d.c.InjectFrame(req)
	d.done(id, call{kind: "inject", inject: req, injected: res})
	return res, err
}
