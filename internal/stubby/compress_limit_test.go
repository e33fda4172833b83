package stubby

// The compressed-payload rules of both ends, against a peer that lies
// (rawPeer) and against the server's own early exits: inflating costs the
// receiver no more than wire.MaxFrameSize of memory and only what the
// payload honestly declares, a refused payload ends that one call coded with
// the connection unaffected, and the pooled buffer a request is inflated
// into goes back to the pool however its call ends.

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/leakcheck"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// hostilePayloads are compressed payloads that must be refused. The first
// is honest and built by the compressor itself, so it is a bomb in whatever
// format the tree under test speaks (at the parent both ends inflated all of
// it); the others relabel it.
func hostilePayloads(t *testing.T) map[string][]byte {
	bomb, err := compressor.New(compressor.Flate, nil).Compress(make([]byte, wire.MaxFrameSize+1))
	if err != nil {
		t.Fatal(err)
	}
	if len(bomb) > 1<<20 {
		t.Fatalf("the bomb is %d bytes on the wire", len(bomb))
	}
	_, head := binary.Uvarint(bomb)
	return map[string][]byte{
		"one byte over MaxFrameSize":                    bomb,
		"holds more than it declares":                   append(binary.AppendUvarint(nil, 1<<10), bomb[head:]...),
		"declares more than it holds":                   append(binary.AppendUvarint(nil, 256<<10), bomb[head:head+512]...),
		"declares what no stream this short could hold": append(binary.AppendUvarint(nil, 32<<20), 0x63, 0, 0),
		"not a stream":                                  []byte("\x10neither deflate nor anything else"),
		"empty":                                         {},
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// bothAlgorithms runs f on an end configured each way: what a flagged
// payload gets is the flag's doing, not the receiver's configuration.
func bothAlgorithms(t *testing.T, f func(*testing.T, Options)) {
	for _, algo := range []compressor.Algorithm{compressor.Flate, compressor.None} {
		t.Run(algo.String(), func(t *testing.T) { f(t, Options{Compression: algo}) })
	}
}

func TestCompressedRequestLimits(t *testing.T) { bothAlgorithms(t, testCompressedRequestLimits) }

func testCompressedRequestLimits(t *testing.T, opts Options) {
	leakcheck.Check(t)
	hostile := hostilePayloads(t)
	outstanding := poolBalance()
	srv := NewServer(opts)
	srv.Register("svc/Echo", echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	peer := newRawPeer(t, nc, "c2s", "s2c")
	id := uint64(1)
	call := func(payload []byte, compressed bool) response {
		id += 2
		env := appendRequest(nil, &request{Method: "svc/Echo", Payload: payload, Compressed: compressed, Deadline: time.Minute})
		if err := peer.tr.send(wire.FrameRequest, id, env); err != nil {
			t.Fatal(err)
		}
		return peer.awaitResponse(id)
	}
	for name, z := range hostile {
		var resp response
		if n := allocatedBy(func() { resp = call(z, true) }); n > 8<<20 {
			t.Errorf("%s: refusing it allocated %d MiB", name, n>>20)
		}
		if resp.Code != trace.InvalidArgument || !strings.Contains(resp.Message, "decompress") {
			t.Errorf("%s: code %v %q, %d bytes echoed; want InvalidArgument", name, resp.Code, resp.Message, len(resp.Payload))
		}
		// The connection is unaffected.
		if resp := call([]byte("still here"), false); resp.Code != trace.OK || string(resp.Payload) != "still here" {
			t.Fatalf("call after %s: code %v, %q", name, resp.Code, resp.Payload)
		}
	}
	want := bytes.Repeat([]byte("honest "), 500)
	flate := compressor.New(compressor.Flate, nil)
	z, _ := flate.Compress(want)
	resp := call(z, true)
	if resp.Compressed {
		resp.Payload, _ = flate.Decompress(resp.Payload)
	}
	if resp.Code != trace.OK || !bytes.Equal(resp.Payload, want) {
		t.Errorf("honest compressed request: code %v %q, %d bytes", resp.Code, resp.Message, len(resp.Payload))
	}
	nc.Close()
	srv.Close()
	if n := outstanding(); n != 0 {
		t.Errorf("%d pooled buffers outstanding", n)
	}
}

// TestCompressedResponseLimits is the client's half: a hostile response
// ends its call Internal, on a channel configured with no compression too.
func TestCompressedResponseLimits(t *testing.T) { bothAlgorithms(t, testCompressedResponseLimits) }

func testCompressedResponseLimits(t *testing.T, opts Options) {
	leakcheck.Check(t)
	hostile := hostilePayloads(t)
	want := bytes.Repeat([]byte("honest "), 500)
	hostile["honest"], _ = compressor.New(compressor.Flate, nil).Compress(want)
	outstanding := poolBalance()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		peer := newRawPeer(t, nc, "s2c", "c2s")
		peer.serve(func(id uint64, req *request) error {
			if z, ok := hostile[req.Method]; ok {
				return peer.respond(id, &response{Payload: z, Compressed: true})
			}
			return peer.respond(id, &response{Payload: req.Payload})
		})
	}()
	ch, err := Dial(l.Addr().String(), "liar", opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for name := range hostile {
		var out []byte
		var err error
		n := allocatedBy(func() { out, err = ch.Call(ctx, name, []byte("x")) })
		if name == "honest" {
			if err != nil || !bytes.Equal(out, want) {
				t.Errorf("honest compressed response: %d bytes, %v", len(out), err)
			}
		} else if Code(err) != trace.Internal {
			t.Errorf("%s: got %d bytes, err %v; want Internal", name, len(out), err)
		}
		if n > 8<<20 {
			t.Errorf("%s: receiving it allocated %d MiB", name, n>>20)
		}
		// The connection, and every other call on it, is unaffected.
		if out, err := ch.Call(ctx, "svc/Echo", []byte("still here")); err != nil || string(out) != "still here" {
			t.Fatalf("call after %s: %q, %v", name, out, err)
		}
	}
	ch.Close()
	<-served
	if n := outstanding(); n != 0 {
		t.Errorf("%d pooled buffers outstanding", n)
	}
}

// TestInflatedRequestBufferReturned sends compressed requests into each way
// a server call can end — answered (by an echo, so the response aliases the
// inflated request until it is sealed), failed by the handler, rejected or
// dropped by the fault plane after inflation, shed before it — and checks
// every pooled buffer is back afterwards. Under -tags sanitize a buffer
// released too early would also reach the client as poison.
func TestInflatedRequestBufferReturned(t *testing.T) {
	faults := func(r faultplane.Rule) *faultplane.Injector {
		return faultplane.New(faultplane.Config{Seed: 16, Rules: []faultplane.Rule{r}})
	}
	for _, tc := range []struct {
		name   string
		server Options
		stall  bool              // handlers wait until every call has been sent
		fail   bool              // handlers return an error
		codes  []trace.ErrorCode // how a call may end; the first must occur
	}{
		{name: "answered", codes: []trace.ErrorCode{trace.OK}},
		{name: "handler error", fail: true, codes: []trace.ErrorCode{trace.EntityNotFound}},
		{name: "fault-rejected", server: Options{Faults: faults(faultplane.Rule{RejectRate: 1})}, codes: []trace.ErrorCode{trace.Unavailable}},
		{name: "fault-dropped", server: Options{Faults: faults(faultplane.Rule{DropRate: 1})}, codes: []trace.ErrorCode{trace.DeadlineExceeded}},
		{name: "shed", server: Options{Workers: 1, ShedThreshold: 1}, stall: true, codes: []trace.ErrorCode{trace.Unavailable, trace.OK}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			outstanding := poolBalance()
			stats := new(compressor.Stats)
			tc.server.CompressorStats = stats
			release := make(chan struct{})
			srv := NewServer(tc.server)
			srv.Register("svc/Echo", func(_ context.Context, p []byte) ([]byte, error) {
				if tc.stall {
					<-release
				}
				if tc.fail {
					return nil, Errorf(trace.EntityNotFound, "no such thing")
				}
				return p, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(l)
			ch, err := Dial(l.Addr().String(), "inflated", Options{Compression: compressor.Flate})
			if err != nil {
				t.Fatal(err)
			}
			const calls = 8
			var wg sync.WaitGroup
			ended := make(chan trace.ErrorCode, calls)
			for c := 0; c < calls; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					req := bytes.Repeat([]byte{byte(c), 'i', 'n', 'f', 'l', 'a', 't', 'e'}, 400)
					ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
					defer cancel()
					out, err := ch.Call(ctx, "svc/Echo", req)
					if err == nil && !bytes.Equal(out, req) {
						t.Errorf("caller %d: echo of %d bytes came back as %d, changed", c, len(req), len(out))
					}
					ended <- Code(err)
				}(c)
			}
			if tc.stall {
				time.Sleep(100 * time.Millisecond) // every call is at the server: queued, running or shed
			}
			close(release)
			wg.Wait()
			close(ended)
			seen := map[trace.ErrorCode]int{}
			for code := range ended {
				seen[code]++
				if !slices.Contains(tc.codes, code) {
					t.Errorf("a call ended %v, want one of %v", code, tc.codes)
				}
			}
			if seen[tc.codes[0]] == 0 {
				t.Errorf("no call ended %v: %v", tc.codes[0], seen)
			}
			if stats.DecompressCalls.Load() == 0 {
				t.Error("the server inflated nothing")
			}
			ch.Close()
			srv.Close()
			if n := outstanding(); n != 0 {
				t.Errorf("%d pooled buffers outstanding after Close", n)
			}
		})
	}
}
