package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"dpgen/internal/mpi"
	"dpgen/internal/mpi/tcp"
)

// Transport probes: round trips per second, messages per second and
// payload megabytes per second between two endpoints, for messages of
// elems float64s — through mpi.Transport for the in-memory communicator
// and the TCP transport, and over a bare loopback net.Conn as the floor
// the TCP transport is compared with.

const (
	probeRoundTrips = 2000
	probeMessages   = 20000
	probeMetaLen    = 4 // the engine sends the consumer tile's coordinates
)

// pingPong and stream drive one pair of mpi.Transport endpoints.
func pingPong(a, b mpi.Transport, elems int) (time.Duration, error) {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < probeRoundTrips; i++ {
			m, ok := b.Recv()
			if !ok {
				done <- fmt.Errorf("echo side: transport closed: %v", b.Err())
				return
			}
			m.Release()
			b.Send(0, 0, mpi.GetData(elems), mpi.GetMeta(probeMetaLen))
		}
		done <- nil
	}()
	t0 := time.Now()
	for i := 0; i < probeRoundTrips; i++ {
		a.Send(1, 0, mpi.GetData(elems), mpi.GetMeta(probeMetaLen))
		m, ok := a.Recv()
		if !ok {
			return 0, fmt.Errorf("transport closed: %v", a.Err())
		}
		m.Release()
	}
	took := time.Since(t0)
	return took, <-done
}

func stream(a, b mpi.Transport, elems int) (time.Duration, error) {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < probeMessages; i++ {
			m, ok := b.Recv()
			if !ok {
				done <- fmt.Errorf("receiving side: transport closed: %v", b.Err())
				return
			}
			m.Release()
		}
		done <- nil
	}()
	t0 := time.Now()
	for i := 0; i < probeMessages; i++ {
		a.Send(1, 0, mpi.GetData(elems), mpi.GetMeta(probeMetaLen))
	}
	err := <-done
	return time.Since(t0), err
}

func recordRates(lay layers, prefix string, elems int, rt, st time.Duration) {
	lay.add(prefix+"_rt_per_s", probeRoundTrips/rt.Seconds())
	lay.add(prefix+"_rtt_us", float64(rt.Microseconds())/probeRoundTrips)
	lay.add(prefix+"_msgs_per_s", probeMessages/st.Seconds())
	lay.add(prefix+"_mb_per_s", float64(probeMessages)*float64(elems)*8/1e6/st.Seconds())
}

func probeTransports(sp *spans, parent spanID, lay layers, elems int) error {
	lay.add("probe_edge_elems", float64(elems))
	pair := func(prefix string, a, b mpi.Transport) error {
		id := sp.begin("probe "+prefix, parent)
		defer sp.end(id)
		rt, err := pingPong(a, b, elems)
		if err != nil {
			return fmt.Errorf("%s ping-pong: %w", prefix, err)
		}
		st, err := stream(a, b, elems)
		if err != nil {
			return fmt.Errorf("%s stream: %w", prefix, err)
		}
		recordRates(lay, prefix, elems, rt, st)
		return nil
	}

	comm, err := mpi.NewComm(2, 4, 16)
	if err != nil {
		return err
	}
	err = pair("mem", comm.Rank(0), comm.Rank(1))
	comm.Close()
	if err != nil {
		return err
	}

	mesh, err := dialMesh(nil, noSpan, tcp.Options{})
	if err != nil {
		return err
	}
	err = pair("tcp", mesh[0], mesh[1])
	closeMesh(mesh)
	if err != nil {
		return err
	}

	id := sp.begin("probe raw", parent)
	defer sp.end(id)
	return probeRawConn(lay, elems)
}

// probeRawConn is the wire floor: the same payloads, length-prefixed,
// over one loopback TCP connection with nothing else on top.
func probeRawConn(lay layers, elems int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // a nil conn is reported by the dial side's failure
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer a.Close()
	b := <-accepted
	if b == nil {
		return fmt.Errorf("raw conn: accept failed")
	}
	defer b.Close()

	frame := make([]byte, 8+8*elems)
	binary.LittleEndian.PutUint64(frame, uint64(8*elems))
	read := func(c net.Conn, buf []byte) error {
		_, err := io.ReadFull(c, buf)
		return err
	}
	echo := func(n int, reply bool) chan error {
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, len(frame))
			for i := 0; i < n; i++ {
				if err := read(b, buf); err != nil {
					done <- err
					return
				}
				if reply {
					if _, err := b.Write(buf); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
		return done
	}

	done := echo(probeRoundTrips, true)
	buf := make([]byte, len(frame))
	t0 := time.Now()
	for i := 0; i < probeRoundTrips; i++ {
		if _, err := a.Write(frame); err != nil {
			return err
		}
		if err := read(a, buf); err != nil {
			return err
		}
	}
	rt := time.Since(t0)
	if err := <-done; err != nil {
		return err
	}

	done = echo(probeMessages, false)
	t0 = time.Now()
	for i := 0; i < probeMessages; i++ {
		if _, err := a.Write(frame); err != nil {
			return err
		}
	}
	if err := <-done; err != nil {
		return err
	}
	recordRates(lay, "raw", elems, rt, time.Since(t0))
	return nil
}
