package sim

import (
	"time"

	"rpcscale/internal/stats"
)

// QueueWait samples the time a request spends waiting in a server-side
// queue whose utilization is util, for a job whose mean service time is
// meanService. The model is an M/G/1-flavored approximation: with
// probability util the arrival finds the server busy and waits an
// exponential residual scaled by util/(1-util); scheduler wakeup delay is
// added on top. This keeps the emergent property the paper leans on —
// queuing latency explodes at the tail as utilization climbs — without
// simulating every machine of a 10K-method fleet at event granularity.
// (The event-granularity Server below is used where individual-machine
// dynamics matter: load balancing and queue-discipline ablations.)
func QueueWait(rng *stats.RNG, meanService time.Duration, util float64, exo Exo) time.Duration {
	wait := exo.WakeupDelay(rng)
	if util > 0.95 {
		util = 0.95
	}
	if util > 0 && rng.Bool(util) {
		mean := float64(meanService) * util / (1 - util)
		wait += time.Duration(rng.ExpFloat64() * mean)
	}
	return wait
}

// Discipline selects the service order of a Server's queue.
type Discipline int

// Queue disciplines.
const (
	// FIFO serves in arrival order; a mouse behind an elephant waits
	// (the HOL blocking of §2.5).
	FIFO Discipline = iota
	// SJF serves the shortest expected job first, the size-aware
	// discipline the paper's HOL discussion motivates.
	SJF
)

// String returns the discipline name.
func (d Discipline) String() string {
	if d == SJF {
		return "sjf"
	}
	return "fifo"
}

// Job is one unit of work submitted to a Server.
type Job struct {
	// Service is the job's service time demand.
	Service time.Duration
	// Done receives the job's queue wait once it completes.
	Done func(wait time.Duration)

	enqueued time.Duration
}

// Server is an event-level model of one machine's RPC worker pool: a
// bounded number of concurrent executors fed by a queue with a chosen
// discipline. It drives the load-balancing (Fig. 22) and queue-discipline
// ablation experiments.
type Server struct {
	Name string

	engine     *Engine
	capacity   int
	discipline Discipline

	busy  int
	queue []*Job

	// Accounting for Utilization.
	busyTime time.Duration
	lastBusy time.Duration
}

// NewServer returns a server with the given concurrent capacity.
func NewServer(engine *Engine, name string, capacity int, discipline Discipline) *Server {
	if capacity <= 0 {
		capacity = 1
	}
	return &Server{Name: name, engine: engine, capacity: capacity, discipline: discipline}
}

// Submit enqueues a job at the current simulation time.
func (s *Server) Submit(j *Job) {
	j.enqueued = s.engine.Now()
	if s.busy < s.capacity {
		s.start(j)
		return
	}
	s.queue = append(s.queue, j)
}

func (s *Server) start(j *Job) {
	now := s.engine.Now()
	wait := now - j.enqueued
	if s.busy == 0 {
		s.lastBusy = now
	}
	s.busy++
	s.engine.After(j.Service, func() {
		s.busy--
		if s.busy == 0 {
			s.busyTime += s.engine.Now() - s.lastBusy
		}
		if j.Done != nil {
			j.Done(wait)
		}
		s.dispatch()
	})
}

// dispatch starts the next queued job, honoring the discipline.
func (s *Server) dispatch() {
	if len(s.queue) == 0 || s.busy >= s.capacity {
		return
	}
	idx := 0
	if s.discipline == SJF {
		for i, j := range s.queue {
			if j.Service < s.queue[idx].Service {
				idx = i
			}
		}
	}
	j := s.queue[idx]
	if idx == 0 {
		// FIFO takes the head: slice it off rather than copy the queue.
		s.queue[0] = nil
		s.queue = s.queue[1:]
	} else {
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	}
	s.start(j)
}

// Load returns the server's instantaneous load estimate — queue depth
// plus executing jobs. It implements loadbalance.Endpoint, so balancing
// policies pick over simulated machines and live pools alike.
func (s *Server) Load() int { return len(s.queue) + s.busy }

// Utilization returns the fraction of elapsed time the server was busy.
// Valid after the run completes (while idle).
func (s *Server) Utilization() float64 {
	now := s.engine.Now()
	if now == 0 {
		return 0
	}
	bt := s.busyTime
	if s.busy > 0 {
		bt += now - s.lastBusy
	}
	return float64(bt) / float64(now)
}
