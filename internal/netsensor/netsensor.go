// Package netsensor implements the Network Weather Service's other sensor
// family: end-to-end TCP latency and bandwidth probes between host pairs.
// The CPU paper (HPDC 1999) evaluates only the CPU sensor, but the NWS it
// describes forecasts network performance with exactly this kind of probe
// (Wolski, Cluster Computing 1998), and the forecasting engine of package
// forecast applies to these series unchanged.
//
// A Reflector is the passive endpoint: it echoes latency probes and sinks
// bandwidth probes. Sensors hold a persistent connection to a Reflector and
// produce one measurement per Measure call:
//
//   - LatencySensor: round-trip time of a small message, in seconds.
//   - BandwidthSensor: throughput of a fixed-size transfer, in bytes/second.
package netsensor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Probe type bytes on the wire.
const (
	probeEcho = 0x01 // followed by u32 length and payload; reflected back
	probeSink = 0x02 // followed by u32 length and payload; acked with u32 length
)

// Reflector is the passive measurement endpoint.
type Reflector struct {
	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewReflector returns an unstarted reflector.
func NewReflector() *Reflector {
	return &Reflector{conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (":0" for ephemeral) and serves probes in background
// goroutines, returning the bound address.
func (r *Reflector) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		l.Close()
		return "", errors.New("netsensor: reflector already closed")
	}
	r.listener = l
	r.mu.Unlock()
	r.wg.Add(1)
	go r.acceptLoop(l)
	return l.Addr().String(), nil
}

func (r *Reflector) acceptLoop(l net.Listener) {
	defer r.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.serve(conn)
	}
}

func (r *Reflector) serve(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriter(conn)
	var hdr [5]byte
	buf := make([]byte, 64<<10)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[1:])
		if n > maxProbeBytes {
			return // protocol violation
		}
		switch hdr[0] {
		case probeEcho:
			if int(n) > len(buf) {
				buf = make([]byte, n)
			}
			if _, err := io.ReadFull(br, buf[:n]); err != nil {
				return
			}
			if _, err := bw.Write(hdr[:]); err != nil {
				return
			}
			if _, err := bw.Write(buf[:n]); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case probeSink:
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				return
			}
			var ack [4]byte
			binary.BigEndian.PutUint32(ack[:], n)
			if _, err := bw.Write(ack[:]); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		default:
			return
		}
	}
}

// Close stops the reflector and waits for its goroutines.
func (r *Reflector) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	l := r.listener
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	r.wg.Wait()
	return err
}

// maxProbeBytes bounds a single probe (16 MiB).
const maxProbeBytes = 16 << 20

// probeConn is the shared persistent-connection machinery of the sensors.
type probeConn struct {
	addr    string
	timeout time.Duration

	mu sync.Mutex
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func newProbeConn(addr string, timeout time.Duration) *probeConn {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &probeConn{addr: addr, timeout: timeout}
}

func (pc *probeConn) ensureLocked() error {
	if pc.c != nil {
		return nil
	}
	c, err := net.DialTimeout("tcp", pc.addr, pc.timeout)
	if err != nil {
		return fmt.Errorf("netsensor: dial %s: %w", pc.addr, err)
	}
	pc.c = c
	pc.r = bufio.NewReaderSize(c, 64<<10)
	pc.w = bufio.NewWriterSize(c, 64<<10)
	return nil
}

func (pc *probeConn) resetLocked() {
	if pc.c != nil {
		pc.c.Close()
	}
	pc.c, pc.r, pc.w = nil, nil, nil
}

// Close drops the connection; the next probe redials.
func (pc *probeConn) Close() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var err error
	if pc.c != nil {
		err = pc.c.Close()
	}
	pc.c, pc.r, pc.w = nil, nil, nil
	return err
}

// LatencySensor measures small-message round-trip time to a Reflector.
type LatencySensor struct {
	pc      *probeConn
	payload []byte
}

// NewLatencySensor returns a latency sensor probing the reflector at addr
// with payloadBytes-sized messages (clamped to [1, 64 KiB]; the NWS default
// is 4 bytes).
func NewLatencySensor(addr string, payloadBytes int, timeout time.Duration) *LatencySensor {
	if payloadBytes < 1 {
		payloadBytes = 4
	}
	if payloadBytes > 64<<10 {
		payloadBytes = 64 << 10
	}
	return &LatencySensor{
		pc:      newProbeConn(addr, timeout),
		payload: make([]byte, payloadBytes),
	}
}

// Measure returns one round-trip time in seconds.
func (s *LatencySensor) Measure() (float64, error) {
	s.pc.mu.Lock()
	defer s.pc.mu.Unlock()
	if err := s.pc.ensureLocked(); err != nil {
		return 0, err
	}
	if err := s.pc.c.SetDeadline(time.Now().Add(s.pc.timeout)); err != nil {
		return 0, err
	}
	var hdr [5]byte
	hdr[0] = probeEcho
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(s.payload)))

	start := time.Now()
	if _, err := s.pc.w.Write(hdr[:]); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	if _, err := s.pc.w.Write(s.payload); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	if err := s.pc.w.Flush(); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	var back [5]byte
	if _, err := io.ReadFull(s.pc.r, back[:]); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	if _, err := io.CopyN(io.Discard, s.pc.r, int64(binary.BigEndian.Uint32(back[1:]))); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// Close releases the sensor's connection.
func (s *LatencySensor) Close() error { return s.pc.Close() }

// BandwidthSensor measures TCP throughput to a Reflector.
type BandwidthSensor struct {
	pc  *probeConn
	buf []byte
}

// NewBandwidthSensor returns a bandwidth sensor transferring probeBytes per
// measurement (clamped to [64 KiB, 16 MiB]; the NWS default experiment size
// is 64 KiB).
func NewBandwidthSensor(addr string, probeBytes int, timeout time.Duration) *BandwidthSensor {
	if probeBytes < 64<<10 {
		probeBytes = 64 << 10
	}
	if probeBytes > maxProbeBytes {
		probeBytes = maxProbeBytes
	}
	return &BandwidthSensor{
		pc:  newProbeConn(addr, timeout),
		buf: make([]byte, probeBytes),
	}
}

// Measure returns one throughput sample in bytes per second: the probe
// payload is streamed to the reflector and the clock stops when its ack
// returns, so the sample includes the full transfer.
func (s *BandwidthSensor) Measure() (float64, error) {
	s.pc.mu.Lock()
	defer s.pc.mu.Unlock()
	if err := s.pc.ensureLocked(); err != nil {
		return 0, err
	}
	if err := s.pc.c.SetDeadline(time.Now().Add(s.pc.timeout)); err != nil {
		return 0, err
	}
	var hdr [5]byte
	hdr[0] = probeSink
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(s.buf)))

	start := time.Now()
	if _, err := s.pc.w.Write(hdr[:]); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	if _, err := s.pc.w.Write(s.buf); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	if err := s.pc.w.Flush(); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	var ack [4]byte
	if _, err := io.ReadFull(s.pc.r, ack[:]); err != nil {
		s.pc.resetLocked()
		return 0, err
	}
	if got := binary.BigEndian.Uint32(ack[:]); int(got) != len(s.buf) {
		s.pc.resetLocked()
		return 0, fmt.Errorf("netsensor: reflector acked %d of %d bytes", got, len(s.buf))
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, errors.New("netsensor: zero-duration transfer")
	}
	return float64(len(s.buf)) / elapsed, nil
}

// Close releases the sensor's connection.
func (s *BandwidthSensor) Close() error { return s.pc.Close() }
