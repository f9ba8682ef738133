package ncube

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Step is one message of a step program: a schedule of point-to-point
// messages (a collective) executing on a Session as typed events. The
// step is its own calendar event and its own wormhole.Receiver, so it
// runs from issue to receipt without allocating: its sender pays TStartup
// and injects it, and once its tail arrives its receiver pays the
// program's wait before the program's Received fires. A step is issued
// at most once.
type Step struct {
	From, To topology.NodeID
	Bytes    int
	// Tag is the program's name for the step: a round, a dimension.
	Tag   int32
	stage int8
	// Next is the sender's following step in a serial send sequence, or
	// nil. The all-port model issues it as soon as this step is
	// injected; the one-port model once this step is delivered, since
	// the node's one port is busy until then.
	Next *Step
	run  *stepRun
}

// stepRun is what every step of one launch shares, kept out of the steps
// so that a launch's thousands of steps stay small.
type stepRun struct {
	s    *Session
	prog StepProgram
	wait event.Time
}

// StepProgram is what a step program does when its messages land.
type StepProgram interface {
	// Delivered fires when st's tail flit reaches st.To.
	Delivered(st *Step, d wormhole.Delivery)
	// Received fires when st.To has spent the program's wait on st's
	// message.
	Received(st *Step)
}

const (
	stepSetup int8 = iota + 1 // the sender is paying TStartup
	stepWait                  // the receiver is paying the wait
	stepDone                  // Received has fired
)

// maxKeptSteps bounds the step slab a session keeps across Release
// (2.5 MiB): a launch needing more — a ring allreduce on an 8-cube has
// 130,560 steps — carves it afresh each time rather than pinning it in
// the pool.
const maxKeptSteps = 1 << 16

// Steps carves n unissued steps bound to prog from the session's slab;
// each step's receiver waits wait (TRecv plus whatever compute the
// program charges) between the tail's arrival and Received. They are
// valid until Release.
func (s *Session) Steps(prog StepProgram, wait event.Time, n int) []Step {
	run := &stepRun{s: s, prog: prog, wait: wait}
	steps := carve(&s.steps, n)
	for i := range steps {
		steps[i].run = run
	}
	return steps
}

// Issue starts st at the current instant: its sender begins paying
// TStartup for it.
func (st *Step) Issue() {
	st.stage = stepSetup
	st.run.s.q.AfterOp(st.run.s.p.TStartup, st)
}

// Done reports whether st's Received has fired.
func (st *Step) Done() bool { return st.stage == stepDone }

// RunEvent ends the step's current wait: TStartup injects the message,
// the receiver's wait hands it to the program.
func (st *Step) RunEvent() {
	s := st.run.s
	if st.stage == stepSetup {
		s.net.Send(st.From, st.To, st.Bytes, st)
		if st.Next != nil && s.p.Port == core.AllPort {
			st.Next.Issue()
		}
		return
	}
	st.stage = stepDone
	st.run.prog.Received(st)
}

// Deliver tells the program, starts the receiver's wait and, under the
// one-port model, frees the sender's port for its next step.
func (st *Step) Deliver(d wormhole.Delivery) {
	st.run.prog.Delivered(st, d)
	st.stage = stepWait
	s := st.run.s
	s.q.AfterOp(st.run.wait, st)
	if st.Next != nil && s.p.Port == core.OnePort {
		st.Next.Issue()
	}
}

// Lose does nothing: step programs do not recover from loss, so a
// program whose message the fault model destroys never completes, and
// the scenario driver reports it.
func (st *Step) Lose(_, _ topology.NodeID) {}
