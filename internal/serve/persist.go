package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/qubo"
	"abs/internal/store"
)

// Job durability. When Config.Store is set the service appends one
// record per job transition to the "jobs" log: a spec record when a
// submission is accepted (problem text included, so the job is
// self-contained) and a done record when it settles. On restart the log
// replays: settled jobs come back queryable (bounded by RetainResults,
// so a restart answers the same GETs the old process would have),
// unfinished jobs re-queue under their original IDs, and the ID counter
// resumes past everything seen. The replayed state is then compacted —
// rewritten as one spec (+done) pair per surviving job — so the log
// stays proportional to the live set, not to service history.
//
// Append failures never fail the job (the solve matters more than its
// paper trail); they increment abs_serve_persist_failures_total.

// jobsLog is the store name the service logs under.
const jobsLog = "jobs"

// jobRecord is one log entry; Kind selects which field group is live.
type jobRecord struct {
	Kind string `json:"kind"` // "spec" | "done"
	ID   string `json:"id"`

	// Spec records.
	Name            string `json:"name,omitempty"`
	Problem         string `json:"problem,omitempty"` // qubo text format
	MaxDurationMS   int64  `json:"max_duration_ms,omitempty"`
	MaxFlips        uint64 `json:"max_flips,omitempty"`
	TargetEnergy    *int64 `json:"target_energy,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`
	MaxDevices      int    `json:"max_devices,omitempty"`
	SubmittedUnixMS int64  `json:"submitted_unix_ms,omitempty"`
	// RunSpec adds the "backend" and "diversity" keys; a record that
	// lacks one (older journals carry no diversity) restores it unset.
	core.RunSpec

	// Done records.
	State          string `json:"state,omitempty"`
	Error          string `json:"error,omitempty"`
	Best           string `json:"best,omitempty"`
	BestEnergy     int64  `json:"best_energy,omitempty"`
	ReachedTarget  bool   `json:"reached_target,omitempty"`
	Flips          uint64 `json:"flips,omitempty"`
	Evaluated      uint64 `json:"evaluated,omitempty"`
	ElapsedMS      int64  `json:"elapsed_ms,omitempty"`
	FinishedUnixMS int64  `json:"finished_unix_ms,omitempty"`
}

// specRecord captures a job's identity and inputs at acceptance.
func specRecord(j *Job) (jobRecord, error) {
	var text strings.Builder
	if err := qubo.WriteText(&text, j.problem); err != nil {
		return jobRecord{}, err
	}
	return jobRecord{
		Kind:            "spec",
		ID:              j.id,
		Name:            j.spec.Name,
		Problem:         text.String(),
		MaxDurationMS:   j.spec.MaxDuration.Milliseconds(),
		MaxFlips:        j.spec.MaxFlips,
		TargetEnergy:    j.spec.TargetEnergy,
		Seed:            j.spec.Seed,
		MaxDevices:      j.spec.MaxDevices,
		RunSpec:         j.spec.RunSpec,
		SubmittedUnixMS: j.submitted.UnixMilli(),
	}, nil
}

// doneRecord captures a settled job's terminal outcome. Call only after
// settle (state is terminal, res/err frozen).
func doneRecord(j *Job) jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := jobRecord{
		Kind:           "done",
		ID:             j.id,
		State:          string(j.state),
		FinishedUnixMS: j.finished.UnixMilli(),
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if r := j.res; r != nil {
		if r.Best != nil {
			rec.Best = r.Best.String()
		}
		rec.BestEnergy = r.BestEnergy
		rec.ReachedTarget = r.ReachedTarget
		rec.Flips = r.Flips
		rec.Evaluated = r.Evaluated
		rec.ElapsedMS = r.Elapsed.Milliseconds()
	}
	return rec
}

// appendRecord writes one record to the jobs log; failures are counted,
// not propagated — durability must never take down a live solve.
func (s *Service) appendRecord(rec jobRecord) {
	if s.cfg.Store == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err == nil {
		err = s.cfg.Store.Append(jobsLog, data)
	}
	s.metrics.persisted(err)
}

// persistSpec and persistDone are the two transition hooks, both called
// on the scheduler goroutine so records land in a well-defined order
// (a job's spec always precedes its done).
func (s *Service) persistSpec(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	rec, err := specRecord(j)
	if err != nil {
		s.metrics.persisted(err)
		return
	}
	s.appendRecord(rec)
}

func (s *Service) persistDone(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	s.appendRecord(doneRecord(j))
}

// restoredState is what a log replay yields: settled jobs to retain,
// specs to re-queue, and the highest job sequence number seen.
type restoredState struct {
	settled []*Job        // oldest-finished first, already bounded
	requeue []*requeueJob // original submission order
	maxSeq  uint64
}

type requeueJob struct {
	id        string
	spec      JobSpec
	problem   *qubo.Problem
	submitted time.Time
}

// loadJobs replays the jobs log into a restoredState. Records it cannot
// make sense of degrade per job, not per log: a spec whose problem text
// no longer parses becomes a failed settled job (the client learns what
// happened instead of a 404); unknown record kinds are skipped for
// forward compatibility.
func loadJobs(st store.Store, retain int) (*restoredState, error) {
	type entry struct {
		spec *jobRecord
		done *jobRecord
	}
	var order []string
	byID := make(map[string]*entry)
	err := st.Replay(jobsLog, func(raw []byte) error {
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("serve: undecodable job record: %w", err)
		}
		switch rec.Kind {
		case "spec":
			if _, dup := byID[rec.ID]; !dup {
				r := rec
				byID[rec.ID] = &entry{spec: &r}
				order = append(order, rec.ID)
			}
		case "done":
			if e, ok := byID[rec.ID]; ok && e.done == nil {
				r := rec
				e.done = &r
			}
			// A done without a spec has nothing to restore from; skip.
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &restoredState{}
	for _, id := range order {
		if seq := jobSeq(id); seq > out.maxSeq {
			out.maxSeq = seq
		}
		e := byID[id]
		spec := JobSpec{
			Name:         e.spec.Name,
			MaxDuration:  time.Duration(e.spec.MaxDurationMS) * time.Millisecond,
			MaxFlips:     e.spec.MaxFlips,
			TargetEnergy: e.spec.TargetEnergy,
			Seed:         e.spec.Seed,
			MaxDevices:   e.spec.MaxDevices,
			RunSpec:      e.spec.RunSpec,
		}
		submitted := time.UnixMilli(e.spec.SubmittedUnixMS)
		p, perr := qubo.ReadText(strings.NewReader(e.spec.Problem))
		verr := spec.validateRun()
		switch {
		case e.done != nil:
			out.settled = append(out.settled, restoreSettled(id, spec, p, submitted, e.done))
		case perr != nil:
			out.settled = append(out.settled, restoreFailed(id, spec, submitted,
				fmt.Errorf("serve: restored problem for %s no longer parses: %w", id, perr)))
		case verr != nil:
			out.settled = append(out.settled, restoreFailed(id, spec, submitted,
				fmt.Errorf("serve: restored spec for %s no longer validates: %w", id, verr)))
		default:
			out.requeue = append(out.requeue, &requeueJob{id: id, spec: spec, problem: p, submitted: submitted})
		}
	}
	// Retention applies across restarts too: keep the newest `retain`
	// settled jobs, in the same oldest-first order the scheduler's
	// eviction list uses.
	if drop := len(out.settled) - retain; drop > 0 {
		out.settled = append(out.settled[:0:0], out.settled[drop:]...)
	}
	return out, nil
}

// restoreSettled rebuilds a terminal Job handle from its record pair.
func restoreSettled(id string, spec JobSpec, p *qubo.Problem, submitted time.Time, done *jobRecord) *Job {
	j := newRestoredJob(id, spec, p, submitted)
	j.state = JobState(done.State)
	if !j.state.Terminal() {
		j.state = StateFailed // defensive: a done record must be terminal
	}
	j.finished = time.UnixMilli(done.FinishedUnixMS)
	if done.Error != "" {
		j.err = errors.New(done.Error)
	} else {
		res := &core.Result{
			BestEnergy:    done.BestEnergy,
			ReachedTarget: done.ReachedTarget,
			Cancelled:     j.state == StateCancelled,
			Flips:         done.Flips,
			Evaluated:     done.Evaluated,
			Elapsed:       time.Duration(done.ElapsedMS) * time.Millisecond,
		}
		if x, err := bitvec.FromString(done.Best); err == nil {
			res.Best = x
		} else if p != nil {
			res.Best = bitvec.New(p.N())
		}
		j.res = res
	}
	j.cancel()
	close(j.done)
	return j
}

// restoreFailed settles a restored job whose inputs are unusable.
func restoreFailed(id string, spec JobSpec, submitted time.Time, err error) *Job {
	j := newRestoredJob(id, spec, nil, submitted)
	j.state = StateFailed
	j.err = err
	j.finished = time.Now()
	j.cancel()
	close(j.done)
	return j
}

func newRestoredJob(id string, spec JobSpec, p *qubo.Problem, submitted time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		id:        id,
		spec:      spec,
		problem:   p,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		submitted: submitted,
	}
}

// compactJobs rewrites the log as exactly the records the restored
// state still needs: spec records for every job about to re-queue, spec
// plus done for every retained settled job. Everything older — evicted
// results, superseded transitions — is gone, so log size tracks the
// live set.
func compactJobs(st store.Store, r *restoredState) error {
	if err := st.Reset(jobsLog); err != nil {
		return err
	}
	write := func(rec jobRecord) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		return st.Append(jobsLog, data)
	}
	for _, j := range r.settled {
		if j.problem != nil {
			rec, err := specRecord(j)
			if err != nil {
				return err
			}
			if err := write(rec); err != nil {
				return err
			}
		} else {
			// Problem text was unusable; persist a bare spec so the done
			// record keeps its anchor.
			if err := write(jobRecord{Kind: "spec", ID: j.id, Name: j.spec.Name,
				SubmittedUnixMS: j.submitted.UnixMilli()}); err != nil {
				return err
			}
		}
		if err := write(doneRecord(j)); err != nil {
			return err
		}
	}
	for _, q := range r.requeue {
		j := &Job{id: q.id, spec: q.spec, problem: q.problem, submitted: q.submitted}
		rec, err := specRecord(j)
		if err != nil {
			return err
		}
		if err := write(rec); err != nil {
			return err
		}
	}
	return nil
}
