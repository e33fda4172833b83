// Package cluster is the multi-process harness behind cmd/rpccluster: it
// runs the real stubby stack as a fleet — N server processes and M client
// processes over real TCP — drives it from the synthetic method catalog
// with time-compressed diurnal load, and renders the paper's Fig. 13–15
// per-policy load-imbalance comparison from live traffic instead of the
// discrete-event simulator.
//
// Topology and protocol (DESIGN.md §13): the parent re-executes its own
// binary with the child's role and configuration as JSON in the
// CLUSTERCTL_CONFIG environment variable.
// Children speak a line protocol on stdout — a server's "CLUSTERCTL READY
// addr=..." after binding, a client's "CLUSTERCTL RESULT <json>" on
// completion — and treat
// SIGTERM or stdin EOF as the drain signal, so an orphaned child exits as
// soon as its parent dies.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Stdout markers of the child line protocol. Everything else a child
// writes to stdout is forwarded to the parent's stderr as a log line.
const (
	readyPrefix  = "CLUSTERCTL READY "
	resultPrefix = "CLUSTERCTL RESULT "
)

// Proc is one supervised child process.
type Proc struct {
	// Name labels the child in logs and errors ("server-0", "client-2").
	Name string

	cmd   *exec.Cmd
	stdin io.WriteCloser

	readyCh  chan string // buffered; the addr from the READY line
	resultCh chan string // buffered; the raw JSON from the RESULT line

	waitOnce sync.Once
	waitErr  error
	done     chan struct{} // closed when the process exited and stdout drained

	scanDone chan struct{}
}

// Spawn starts bin with the given extra environment (os.Environ is
// inherited) and supervises it: stdout is scanned for protocol lines,
// stderr passes through to the parent's stderr, and stdin is held open as
// the orphan-prevention channel — if the parent dies, the child sees EOF
// and drains.
func Spawn(name, bin string, args []string, extraEnv []string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s stdin: %w", name, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s stdout: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: starting %s: %w", name, err)
	}
	p := &Proc{
		Name:     name,
		cmd:      cmd,
		stdin:    stdin,
		readyCh:  make(chan string, 1),
		resultCh: make(chan string, 1),
		done:     make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	go p.scan(stdout)
	go func() {
		<-p.scanDone
		p.waitOnce.Do(func() { p.waitErr = cmd.Wait() })
		close(p.done)
	}()
	return p, nil
}

// scan reads the child's stdout, routing protocol lines to their channels
// and forwarding everything else to stderr.
func (p *Proc) scan(r io.Reader) {
	defer close(p.scanDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20) // RESULT lines carry histograms
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, readyPrefix):
			addr := strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(line, readyPrefix)), "addr=")
			select {
			case p.readyCh <- addr:
			default:
			}
		case strings.HasPrefix(line, resultPrefix):
			select {
			case p.resultCh <- strings.TrimPrefix(line, resultPrefix):
			default:
			}
		default:
			fmt.Fprintf(os.Stderr, "[%s] %s\n", p.Name, line)
		}
	}
}

// WaitReady blocks until the child prints its READY line and returns the
// advertised address. A child that exits first fails with its exit error.
func (p *Proc) WaitReady(timeout time.Duration) (string, error) {
	select {
	case addr := <-p.readyCh:
		return addr, nil
	case <-p.done:
		return "", fmt.Errorf("cluster: %s exited before READY: %w", p.Name, p.exitErr())
	case <-time.After(timeout):
		return "", fmt.Errorf("cluster: %s not ready after %v", p.Name, timeout)
	}
}

// Result blocks until the child prints its RESULT line and returns the raw
// JSON. A child that exits without one fails with its exit error.
func (p *Proc) Result(timeout time.Duration) (string, error) {
	select {
	case res := <-p.resultCh:
		return res, nil
	case <-p.done:
		// The process exited; a buffered RESULT may still have raced in.
		select {
		case res := <-p.resultCh:
			return res, nil
		default:
		}
		return "", fmt.Errorf("cluster: %s exited without a result: %w", p.Name, p.exitErr())
	case <-time.After(timeout):
		return "", fmt.Errorf("cluster: %s produced no result after %v", p.Name, timeout)
	}
}

// exitErr normalizes the child's exit status into a non-nil error carrying
// the exit code.
func (p *Proc) exitErr() error {
	if p.waitErr == nil {
		return errors.New("exit status 0")
	}
	return p.waitErr
}

// ExitCode returns the child's exit code once it has exited, -1 before.
func (p *Proc) ExitCode() int {
	select {
	case <-p.done:
	default:
		return -1
	}
	if p.waitErr == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(p.waitErr, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// Wait blocks for process exit and returns its exit error (nil on status
// 0). Safe to call multiple times.
func (p *Proc) Wait() error {
	<-p.done
	return p.waitErr
}

// Stop asks the child to drain — SIGTERM plus closing its stdin — then
// waits up to grace before escalating to SIGKILL. It returns the child's
// exit error (nil for a clean exit).
func (p *Proc) Stop(grace time.Duration) error {
	_ = p.stdin.Close()
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-p.done:
		return p.waitErr
	case <-time.After(grace):
	}
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	<-p.done
	return fmt.Errorf("cluster: %s did not drain within %v (killed)", p.Name, grace)
}

// Kill terminates the child immediately, for teardown on error paths.
func (p *Proc) Kill() {
	_ = p.stdin.Close()
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	<-p.done
}

// StopAll drains procs concurrently, returning the first failure.
func StopAll(procs []*Proc, grace time.Duration) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(procs))
	for _, p := range procs {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			if err := p.Stop(grace); err != nil {
				errCh <- fmt.Errorf("%s: %w", p.Name, err)
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
