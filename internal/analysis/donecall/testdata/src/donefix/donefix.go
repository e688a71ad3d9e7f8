// Package donefix is the donecall fixture: a dispatcher shaped like
// pkg/lard's, exercising the exactly-once done-func contract on every
// path shape the analyzer understands.
package donefix

import "errors"

type dispatcher struct{ load []int }

// Dispatch mimics lard.Dispatcher: done is non-nil iff err is nil.
func (d *dispatcher) Dispatch(now int64, key string) (int, func(), error) {
	if len(d.load) == 0 {
		return -1, nil, errors.New("no nodes")
	}
	d.load[0]++
	return 0, func() { d.load[0]-- }, nil
}

// claimLocked mimics the error-free variant: done is always non-nil.
func (d *dispatcher) claimLocked(node int) func() {
	d.load[node]++
	return func() { d.load[node]-- }
}

// Redispatch mimics lard.Session.Redispatch: a claim on some node outside
// exclude, done non-nil iff err is nil.
func (d *dispatcher) Redispatch(now int64, key string, exclude []int) (int, func(), error) {
	if len(exclude) >= len(d.load) {
		return -1, nil, errors.New("no alternate")
	}
	node := len(exclude)
	d.load[node]++
	return node, func() { d.load[node]-- }, nil
}

// connect stands in for the front end's pool-checkout-or-dial.
func connect(node int) error {
	if node == 0 {
		return errors.New("refused")
	}
	return nil
}

// good is the canonical shape: check err, call done exactly once.
func good(d *dispatcher) error {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		return err
	}
	done()
	return nil
}

// goodDefer releases via defer after the error check.
func goodDefer(d *dispatcher) error {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		return err
	}
	defer done()
	return nil
}

// goodPanic ends the error path with panic (the log.Fatal shape in the
// examples): done() below is unreachable on the err arm.
func goodPanic(d *dispatcher) {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		panic(err)
	}
	done()
}

// goodNilCheck gates the call on done itself rather than err.
func goodNilCheck(d *dispatcher) {
	_, done, _ := d.Dispatch(0, "a")
	if done != nil {
		done()
	}
}

// discard throws the done func away.
func discard(d *dispatcher) {
	d.Dispatch(0, "a") // want `Dispatch returns a done func that is discarded`
}

// blank assigns the done func to _.
func blank(d *dispatcher) {
	_, _, err := d.Dispatch(0, "a") // want `Dispatch returns a done func that is discarded \(assigned to _\)`
	_ = err
}

// leak forgets to call done on the success path.
func leak(d *dispatcher) error {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		return err
	}
	_ = done
	return nil // want `done func from Dispatch \(line \d+\) is not called on this path`
}

// leakBranch calls done on one arm only.
func leakBranch(d *dispatcher, b bool) {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		return
	}
	if b {
		done()
	}
	return // want `done func from Dispatch \(line \d+\) is not called on this path`
}

// double may call done twice on the b-path.
func double(d *dispatcher, b bool) {
	done := d.claimLocked(0)
	if b {
		done()
	}
	done() // want `done func from claimLocked \(line \d+\) may already have been called on this path`
}

// nilCall invokes done exactly where it is guaranteed nil.
func nilCall(d *dispatcher) {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		done() // want `done func from Dispatch \(line \d+\) is called on a path where it is nil`
		return
	}
	done()
}

// overwrite drops a live done by reassigning it.
func overwrite(d *dispatcher) {
	done := d.claimLocked(0)
	done = d.claimLocked(1) // want `done func from claimLocked \(line \d+\) is overwritten before being called`
	done()
}

// loopLeak claims again next iteration without releasing, and leaves
// the last claim unreleased when the loop exits (hence the diagnostic
// on the function's opening line, where fall-off-the-end reports land).
func loopLeak(d *dispatcher, n int) { // want `done func from claimLocked \(line \d+\) is not called on this path`
	for i := 0; i < n; i++ {
		done := d.claimLocked(0) // want `done func from claimLocked \(line \d+\) is overwritten before being called`
		_ = done
	}
}

// loopGood releases every iteration.
func loopGood(d *dispatcher, n int) {
	for i := 0; i < n; i++ {
		done := d.claimLocked(0)
		done()
	}
}

// escapeReturn hands the obligation to the caller.
func escapeReturn(d *dispatcher) (func(), error) {
	_, done, err := d.Dispatch(0, "a")
	return done, err
}

// escapeArg hands the obligation to another function.
func escapeArg(d *dispatcher, sink func(func())) {
	done := d.claimLocked(0)
	sink(done)
}

// escapeCapture hands the obligation to a closure.
func escapeCapture(d *dispatcher) func() {
	done := d.claimLocked(0)
	return func() { done() }
}

// holder mimics Session parking the release func in a struct field.
type holder struct{ release func() }

// escapeStore parks the obligation in a struct the way Session does.
func escapeStore(d *dispatcher, h *holder) {
	h.release = d.claimLocked(0)
}

// allowDirective suppresses a deliberate leak; fall-off-the-end reports
// land on the opening line, so the directive sits above the function.
//
//lard:allow donecall — fixture: leak is the point of this helper
func allowDirective(d *dispatcher) {
	done := d.claimLocked(0)
	_ = done
}

// attachBackend mimics the front end's one attach function. The first
// attempt rides the caller's claim (done is still nil); each refused
// alternate's claim is released before the next is taken; the claim of
// the alternate that connected is returned to supersede the caller's.
// No finding: every path calls or returns each claim exactly once.
func attachBackend(d *dispatcher, node int) (int, func(), error) {
	var (
		tried []int
		done  func()
		err   error
	)
	for {
		if err = connect(node); err == nil {
			return node, done, nil
		}
		if done != nil {
			done()
		}
		if tried = append(tried, node); len(tried) > 2 {
			break
		}
		var rerr error
		node, done, rerr = d.Redispatch(0, "a", tried)
		if rerr != nil {
			break
		}
	}
	return -1, nil, err
}

// attachLoopLeak asks for the next alternate without releasing the one
// that just refused, and gives up holding the last.
func attachLoopLeak(d *dispatcher, node int) (int, func(), error) {
	var (
		tried []int
		done  func()
		err   error
	)
	for {
		if err = connect(node); err == nil {
			return node, done, nil
		}
		if tried = append(tried, node); len(tried) > 2 {
			break
		}
		var rerr error
		node, done, rerr = d.Redispatch(0, "a", tried) // want `done func from Redispatch \(line \d+\) is overwritten before being called`
		if rerr != nil {
			break
		}
	}
	return -1, nil, err // want `done func from Redispatch \(line \d+\) is not called on this path`
}

// supersede is the relay loop's side of attachBackend: a non-nil done
// replaces the request's claim, and whichever is current is released
// when the request completes.
func supersede(d *dispatcher) error {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		return err
	}
	requestDone := done
	_, ndone, err := attachBackend(d, 0)
	if err != nil {
		requestDone()
		return err
	}
	if ndone != nil {
		requestDone = ndone
	}
	requestDone()
	return nil
}

// supersedeDropped releases the original claim and forgets the one
// attachBackend re-dispatched onto.
func supersedeDropped(d *dispatcher) error {
	_, done, err := d.Dispatch(0, "a")
	if err != nil {
		return err
	}
	_, ndone, err := attachBackend(d, 0)
	if err != nil {
		done()
		return err
	}
	_ = ndone == nil
	done()
	return nil // want `done func from attachBackend \(line \d+\) is not called on this path`
}
