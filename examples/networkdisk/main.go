// Networkdisk: a miniature of the paper's largest service — the network
// disk that alone receives 28% of all fleet RPC calls (§2.3) and moves
// the most bytes (Fig. 8b). Demonstrates:
//
//   - quorum-replicated writes: the coordinator fans each block out to
//     three replica servers in parallel and acknowledges at two — the
//     replication sub-calls behind the paper's layer-0 fan-outs;
//   - server-streaming bulk reads: large files stream back in chunks
//     (the RPC class the paper's sampling excludes, §2.1);
//   - connection pools, for unary calls and streams alike, whose channels
//     retry transient failures themselves (Options.Retry).
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"rpcscale/internal/codec"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

const (
	replicas   = 3
	quorum     = 2
	chunkBytes = 32 * 1024 // Table 1: Network Disk's typical 32 KB RPC
)

// Wire schemas.
var (
	writeReq = codec.MustDescriptor("disk.WriteRequest",
		codec.Field{Number: 1, Name: "block_id", Type: codec.TypeUint64},
		codec.Field{Number: 2, Name: "data", Type: codec.TypeBytes},
	)
	readReq = codec.MustDescriptor("disk.ReadRequest",
		codec.Field{Number: 1, Name: "first_block", Type: codec.TypeUint64},
		codec.Field{Number: 2, Name: "block_count", Type: codec.TypeUint64},
	)
)

// replica is one disk server: a block map.
type replica struct {
	name string
	mu   sync.RWMutex
	data map[uint64][]byte
}

func (r *replica) write(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := codec.Unmarshal(writeReq, payload)
	if err != nil {
		return nil, stubby.Errorf(trace.InvalidArgument, "bad write: %v", err)
	}
	r.mu.Lock()
	r.data[req.GetUint64(1)] = append([]byte(nil), req.GetBytes(2)...)
	r.mu.Unlock()
	return nil, nil
}

// readStream streams the requested block range back chunk by chunk; the
// stream's first message is the request.
func (r *replica) readStream(ctx context.Context, st *stubby.Stream) error {
	payload, err := st.Recv()
	if err != nil {
		return stubby.Errorf(trace.InvalidArgument, "no read request: %v", err)
	}
	req, err := codec.Unmarshal(readReq, payload)
	if err != nil {
		return stubby.Errorf(trace.InvalidArgument, "bad read: %v", err)
	}
	first, count := req.GetUint64(1), req.GetUint64(2)
	for b := first; b < first+count; b++ {
		r.mu.RLock()
		block, ok := r.data[b]
		r.mu.RUnlock()
		if !ok {
			return stubby.Errorf(trace.EntityNotFound, "block %d missing on %s", b, r.name)
		}
		if err := st.Send(block); err != nil {
			return err
		}
	}
	return nil
}

// startReplica boots one disk server and returns its address.
func startReplica(name string, opts stubby.Options) (string, func(), error) {
	rep := &replica{name: name, data: make(map[uint64][]byte)}
	srv := stubby.NewServer(opts)
	srv.Register("networkdisk/Write", rep.write)
	srv.RegisterBidi("networkdisk/ReadStream", rep.readStream)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(l)
	return l.Addr().String(), srv.Close, nil
}

// diskClient is the coordinator-side library: quorum writes and streamed
// reads over one connection pool per replica, whose channels retry
// transient failures themselves.
type diskClient struct {
	pools []*stubby.Pool
}

func dialDisk(addrs []string, opts stubby.Options) (*diskClient, error) {
	retry := stubby.DefaultRetryPolicy()
	opts.Retry = &retry
	c := &diskClient{}
	for _, addr := range addrs {
		pool, err := stubby.NewPool(addr, "disk-"+addr, 2, opts)
		if err != nil {
			c.close()
			return nil, err
		}
		c.pools = append(c.pools, pool)
	}
	return c, nil
}

func (c *diskClient) close() {
	for _, p := range c.pools {
		p.Close()
	}
}

// writeBlock replicates one block, acknowledging at quorum.
func (c *diskClient) writeBlock(ctx context.Context, id uint64, data []byte) error {
	msg := codec.NewMessage(writeReq).Set(1, id).Set(2, data)
	payload, err := codec.Marshal(msg)
	if err != nil {
		return err
	}
	errs := make(chan error, replicas)
	for _, pool := range c.pools {
		go func() {
			_, err := pool.Call(ctx, "networkdisk/Write", payload)
			errs <- err
		}()
	}
	acks, failures := 0, 0
	for i := 0; i < replicas; i++ {
		if err := <-errs; err == nil {
			acks++
			if acks >= quorum {
				return nil // quorum reached; stragglers finish async
			}
		} else {
			failures++
			if failures > replicas-quorum {
				return stubby.Errorf(trace.Unavailable, "quorum failed: %v", err)
			}
		}
	}
	return nil
}

// readFile streams a block range from one replica.
func (c *diskClient) readFile(ctx context.Context, replicaIdx int, first, count uint64) ([]byte, error) {
	msg := codec.NewMessage(readReq).Set(1, first).Set(2, count)
	payload, err := codec.Marshal(msg)
	if err != nil {
		return nil, err
	}
	// The stream rides one of the chosen replica's pooled connections: the
	// request is its one outbound message, then the blocks come back.
	stream, err := c.pools[replicaIdx].OpenStream(ctx, "networkdisk/ReadStream")
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	if err := stream.Send(payload); err != nil {
		return nil, err
	}
	if err := stream.CloseSend(); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for {
		chunk, err := stream.Recv()
		if err == io.EOF {
			return out.Bytes(), nil
		}
		if err != nil {
			return nil, err
		}
		out.Write(chunk)
	}
}

func main() {
	opts := stubby.Options{Workers: 16}

	var addrs []string
	for i := 0; i < replicas; i++ {
		addr, stop, err := startReplica(fmt.Sprintf("replica-%d", i), opts)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		addrs = append(addrs, addr)
	}

	client, err := dialDisk(addrs, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer client.close()
	ctx := context.Background()

	// Write a 1 MB "file" as 32 KB blocks, quorum-replicated.
	const nBlocks = 32
	file := make([]byte, nBlocks*chunkBytes)
	for i := range file {
		file[i] = byte(i * 31)
	}
	start := time.Now()
	for b := 0; b < nBlocks; b++ {
		if err := client.writeBlock(ctx, uint64(b), file[b*chunkBytes:(b+1)*chunkBytes]); err != nil {
			log.Fatalf("write block %d: %v", b, err)
		}
	}
	writeTime := time.Since(start)

	// Give straggler replica acks a moment to land before reading.
	time.Sleep(50 * time.Millisecond)

	// Stream it back from replica 1.
	start = time.Now()
	got, err := client.readFile(ctx, 1, 0, nBlocks)
	if err != nil {
		log.Fatal(err)
	}
	readTime := time.Since(start)

	if !bytes.Equal(got, file) {
		log.Fatal("read-back mismatch")
	}
	fmt.Printf("networkdisk: wrote %d KB in %v (%d blocks, %d-way replication, quorum %d)\n",
		len(file)/1024, writeTime.Round(time.Millisecond), nBlocks, replicas, quorum)
	fmt.Printf("networkdisk: streamed %d KB back in %v (%d chunks)\n",
		len(got)/1024, readTime.Round(time.Millisecond), nBlocks)
	fmt.Println("\nthe paper's shape: many small write RPCs dominate call count,")
	fmt.Println("while streamed bulk reads (excluded from its RPC sampling) move the bytes")
}
