package p4rt

// Data-plane test extension: a traffic-generator RPC that injects a frame
// into a switch port and reports the observable outcome. Real deployments
// use physical traffic generators wired to the switch; the protocol
// extension plays that role for simulated and remote switches alike.

// InjectRequest sends a frame into a port.
type InjectRequest struct {
	Port  uint16
	Frame []byte
}

// MirrorFrame is one mirrored copy in an inject result.
type MirrorFrame struct {
	Session uint16
	Frame   []byte
}

// InjectResult is the observable outcome of one injected frame.
type InjectResult struct {
	Punted     bool
	Dropped    bool
	EgressPort uint16
	Frame      []byte
	CopyToCPU  bool
	Mirrors    []MirrorFrame
	// Spontaneous holds frames the switch emitted to the controller on
	// its own while handling the injection (daemon noise).
	Spontaneous [][]byte
}

// DataPlaneDevice is implemented by switches that support frame injection.
type DataPlaneDevice interface {
	InjectFrame(req InjectRequest) (InjectResult, error)
}

func encodeInjectRequest(r *InjectRequest) []byte {
	e := &enc{}
	e.u16(r.Port)
	e.bytes(r.Frame)
	return e.buf
}

func decodeInjectRequest(b []byte) (InjectRequest, error) {
	d := &dec{buf: b}
	r := InjectRequest{Port: d.u16(), Frame: d.bytes()}
	return r, d.err
}

func encodeInjectResult(r *InjectResult) []byte {
	e := &enc{}
	e.bool(r.Punted)
	e.bool(r.Dropped)
	e.u16(r.EgressPort)
	e.bytes(r.Frame)
	e.bool(r.CopyToCPU)
	e.u32(uint32(len(r.Mirrors)))
	for _, m := range r.Mirrors {
		e.u16(m.Session)
		e.bytes(m.Frame)
	}
	e.u32(uint32(len(r.Spontaneous)))
	for _, f := range r.Spontaneous {
		e.bytes(f)
	}
	return e.buf
}

func decodeInjectResult(b []byte) (InjectResult, error) {
	d := &dec{buf: b}
	r := InjectResult{
		Punted:     d.bool(),
		Dropped:    d.bool(),
		EgressPort: d.u16(),
		Frame:      d.bytes(),
		CopyToCPU:  d.bool(),
	}
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		r.Mirrors = append(r.Mirrors, MirrorFrame{Session: d.u16(), Frame: d.bytes()})
	}
	n = d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		r.Spontaneous = append(r.Spontaneous, d.bytes())
	}
	return r, d.err
}

// InjectFrame implements DataPlaneDevice on the client.
func (c *Client) InjectFrame(req InjectRequest) (InjectResult, error) {
	st, body, err := c.call(FrameInject, encodeInjectRequest(&req))
	if err != nil {
		return InjectResult{}, err
	}
	if err := st.Err(); err != nil {
		return InjectResult{}, err
	}
	return decodeInjectResult(body)
}
