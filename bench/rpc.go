package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/fleet"
	"rpcscale/internal/secure"
	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

const (
	smallPayload   = 128
	bulkRequest    = 16
	bulkResponse   = 256 << 10
	bulkBlobs      = 8
	mixMethods     = 200
	mixMaxPayload  = 64 << 10
	mixScheduleLen = 8192
	mixAckLen      = 16
	// catalogSeed fixes the method catalog and topology. They are the
	// program's configuration; --seed drives only the inputs (payload
	// bytes, call schedule, generation run).
	catalogSeed = 1
	// planeSpanCapacity bounds the spans the telemetry plane retains, so
	// fleet_mix measures the observer and not an ever-growing span store.
	planeSpanCapacity = 1 << 16
	// fullCheckEvery is how often a reply is compared byte for byte; every
	// reply is checked for length and for the checksum of its edges.
	fullCheckEvery = 64
)

// op is one generated call: what to send and what must come back.
type op struct {
	method  string
	req     []byte
	want    []byte // the full expected reply
	wantSum uint64 // edgeSum(want)
}

// payloadBytes is the request plus response payload of one successful op.
func (o *op) payloadBytes() int64 { return int64(len(o.req) + len(o.want)) }

// edgeSum is FNV-1a over the length and the first and last 64 bytes of b:
// cheap enough to run on every reply, and it catches truncation, a reply
// routed to the wrong call and corruption at either end.
func edgeSum(b []byte) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(b))
	mix := func(p []byte) {
		for _, c := range p {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	if len(b) <= 128 {
		mix(b)
	} else {
		mix(b[:64])
		mix(b[len(b)-64:])
	}
	return h
}

var errBadReply = errors.New("reply does not match the generated input")

// checkReply verifies resp against what op expects. seq selects the calls
// that get the full comparison.
func checkReply(resp []byte, o *op, seq int) error {
	if len(resp) != len(o.want) || edgeSum(resp) != o.wantSum {
		return errBadReply
	}
	if seq%fullCheckEvery == 0 && !bytes.Equal(resp, o.want) {
		return errBadReply
	}
	return nil
}

func fillRandom(rng *stats.RNG, b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		b[i] = byte(rng.Uint64())
	}
}

// compressibleBytes returns n bytes stitched from runs of a small random
// dictionary, so flate finds matches and does real work (ratio about 0.5)
// the way it does on structured RPC payloads.
func compressibleBytes(rng *stats.RNG, n int) []byte {
	dict := make([]byte, 2048)
	fillRandom(rng, dict)
	out := make([]byte, 0, n+64)
	for len(out) < n {
		off, l := rng.Intn(len(dict)-64), 8+rng.Intn(56)
		out = append(out, dict[off:off+l]...)
	}
	return out[:n]
}

// rpcInputs is everything generated from the seed for one RPC workload.
type rpcInputs struct {
	ops      []op
	handlers map[string]stubby.Handler
	opts     stubby.Options
	plane    *telemetry.Plane // fleet_mix only
	free     bool             // hand replies back with FreeResponse
	warmup   int              // untimed calls per caller before measuring
	// catalogBuild is the time fleet.New took (fleet_mix only).
	catalogBuild time.Duration
}

// genInputs builds the inputs of an RPC workload from the seed. The same
// seed gives the same ops, byte for byte.
func genInputs(workload string, seed uint64) (*rpcInputs, error) {
	rng := stats.NewRNG(seed).Child(workload)
	in := &rpcInputs{
		handlers: map[string]stubby.Handler{},
		opts: stubby.Options{
			CompressorStats: new(compressor.Stats),
			EncryptionStats: new(secure.Stats),
		},
	}
	switch workload {
	case "unary_small":
		in.warmup = 8000
		in.handlers["bench/Echo"] = func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
		for i := 0; i < 256; i++ {
			p := make([]byte, smallPayload)
			fillRandom(rng, p)
			in.ops = append(in.ops, op{method: "bench/Echo", req: p, want: p})
		}
	case "bulk_download":
		in.warmup = 1000
		in.free = true
		blobs := make([][]byte, bulkBlobs)
		for i := range blobs {
			blobs[i] = make([]byte, bulkResponse)
			fillRandom(rng, blobs[i])
		}
		in.handlers["bench/Get"] = func(_ context.Context, p []byte) ([]byte, error) {
			if len(p) != bulkRequest {
				return nil, stubby.Errorf(trace.InvalidArgument, "bulk request of %d bytes", len(p))
			}
			return blobs[binary.LittleEndian.Uint64(p)%bulkBlobs], nil
		}
		for i := 0; i < 64; i++ {
			req := make([]byte, bulkRequest)
			binary.LittleEndian.PutUint64(req, uint64(i))
			binary.LittleEndian.PutUint64(req[8:], rng.Uint64())
			in.ops = append(in.ops, op{method: "bench/Get", req: req, want: blobs[i%bulkBlobs]})
		}
	case "fleet_mix":
		in.warmup = 3000
		in.plane = telemetry.New(telemetry.WithSpanCapacity(planeSpanCapacity))
		in.opts = in.plane.Apply(stubby.Options{Compression: compressor.Flate, CompressThreshold: 512})
		t0 := time.Now()
		cat := fleet.New(fleet.Config{Methods: mixMethods, Clusters: 4, Seed: catalogSeed})
		in.catalogBuild = time.Since(t0)
		ack := func(_ context.Context, p []byte) ([]byte, error) { return ackOf(p), nil }
		for _, m := range cat.Methods {
			in.handlers[m.Name] = ack
		}
		source := compressibleBytes(rng, 2*mixMaxPayload)
		drv := fleet.NewDriver(cat, fleet.DriveConfig{BaseRate: 1, MaxPayload: mixMaxPayload, Seed: seed})
		for i := 0; i < mixScheduleLen; i++ {
			m, n, _ := drv.Next() // closed loop: the arrival gap is ignored
			off := rng.Intn(len(source) - n + 1)
			req := source[off : off+n]
			in.ops = append(in.ops, op{method: m.Name, req: req, want: ackOf(req)})
		}
	default:
		return nil, fmt.Errorf("unknown RPC workload %q", workload)
	}
	for i := range in.ops {
		in.ops[i].wantSum = edgeSum(in.ops[i].want)
	}
	return in, nil
}

// ackOf is the fleet_mix reply: the request's length and edge checksum, so
// the client can tell its upload arrived intact without echoing it.
func ackOf(req []byte) []byte {
	ack := make([]byte, mixAckLen)
	binary.LittleEndian.PutUint64(ack, uint64(len(req)))
	binary.LittleEndian.PutUint64(ack[8:], edgeSum(req))
	return ack
}

// rpcEnv is a live server and one client connection to it over loopback TCP.
type rpcEnv struct {
	in  *rpcInputs
	srv *stubby.Server
	ch  *stubby.Channel
}

// startEnv serves in.handlers on a loopback listener and dials one channel.
// A non-nil collector is attached to the client, which then emits a span
// with the nine-component breakdown for every call.
func startEnv(in *rpcInputs, collector *trace.Collector) (*rpcEnv, error) {
	srv := stubby.NewServer(in.opts)
	for name, h := range in.handlers {
		srv.Register(name, h)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when Close stops the listener
	copts := in.opts
	copts.Collector = collector
	ch, err := stubby.Dial(l.Addr().String(), "bench-server", copts)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &rpcEnv{in: in, srv: srv, ch: ch}, nil
}

// call issues ops[seq % len] and checks the reply.
func (e *rpcEnv) call(seq int) (*op, error) {
	o := &e.in.ops[seq%len(e.in.ops)]
	resp, err := e.ch.Call(context.Background(), o.method, o.req)
	if err != nil {
		return o, err
	}
	err = checkReply(resp, o, seq)
	if e.in.free {
		stubby.FreeResponse(resp)
	}
	return o, err
}

func (e *rpcEnv) close() {
	_ = e.ch.Close() // the connection is being discarded either way
	e.srv.Close()
}

// poolOutstanding is wire's GetBuf count minus its PutBuf count.
func poolOutstanding() int64 {
	gets, puts := wire.PoolCounters()
	return gets - puts
}

// poolLeak returns how many pooled buffers are outstanding beyond base, which
// the caller read before it opened any connection, once every connection is
// closed. Close returns before the last goroutines of a connection have put
// their buffers back, so a non-zero count is given a second to drain.
func poolLeak(base int64) int64 {
	deadline := time.Now().Add(time.Second)
	for poolOutstanding() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	leaked := poolOutstanding() - base
	if leaked != 0 {
		fmt.Fprintf(os.Stderr, "bench: %d pooled buffers outstanding after every connection was closed\n", leaked)
	}
	return leaked
}
