// Fixture for replypool: every getReply() paired with putReply() on all
// return paths.
package a

import "sync"

type response struct {
	val string
	err error
}

var replyPool = sync.Pool{New: func() any { return make(chan response, 1) }}

func getReply() chan response {
	return replyPool.Get().(chan response)
}

func putReply(ch chan response) { replyPool.Put(ch) }

func send(ch chan response) bool { return ch != nil }

var done = make(chan struct{})

// good mirrors the real request path: release on the failed-send path, on
// the answered path, and (via directive) deliberate abandonment on Stop.
func good() (response, error) {
	reply := getReply()
	if !send(reply) {
		putReply(reply)
		return response{}, nil
	}
	select {
	case resp := <-reply:
		putReply(reply)
		return resp, nil
	case <-done:
		//batonvet:ignore replypool abandoned on Stop: a late answer must not reach the pool
		return response{}, nil
	}
}

// deferred releases via defer: one registration covers every return.
func deferred() (response, error) {
	reply := getReply()
	defer putReply(reply)
	if !send(reply) {
		return response{}, nil
	}
	return <-reply, nil
}

// leakOnError forgets the release on the early-error return.
func leakOnError() (response, error) {
	reply := getReply()
	if !send(reply) {
		return response{}, nil // want `leaks the pooled reply channel`
	}
	resp := <-reply
	putReply(reply)
	return resp, nil
}

// leakOnStop forgets the release on the done path and carries no directive.
func leakOnStop() (response, error) {
	reply := getReply()
	select {
	case resp := <-reply:
		putReply(reply)
		return resp, nil
	case <-done:
		return response{}, nil // want `leaks the pooled reply channel`
	}
}

// fallthroughRelease releases on the non-returning branch: the fall-through
// to the final return is clean.
func fallthroughRelease(retry func() (response, error)) (response, error) {
	reply := getReply()
	if send(reply) {
		select {
		case resp := <-reply:
			putReply(reply)
			return resp, nil
		case <-done:
			//batonvet:ignore replypool abandoned on Stop: a late answer must not reach the pool
			return response{}, nil
		}
	}
	putReply(reply)
	return retry()
}

// earlyReturn precedes the acquisition: nothing to release yet.
func earlyReturn(ok bool) (response, error) {
	if !ok {
		return response{}, nil
	}
	reply := getReply()
	resp := <-reply
	putReply(reply)
	return resp, nil
}

// unrelated never touches the pool.
func unrelated() response {
	return response{}
}

// --- correlation-table pairing (the wire transport's discipline) ---

type corrTable struct{ next uint64 }

func acquireCorr(t *corrTable, fn func(response)) uint64 {
	t.next++
	return t.next
}

func releaseCorr(t *corrTable, id uint64) (func(response), bool) { return nil, false }

func lookupCorr(t *corrTable, id uint64) (func(response), bool) { return nil, false }

func wireSend(id uint64) bool { return id != 0 }

var corr corrTable

// corrGood mirrors the real deliver path: release on the failed send,
// directive-marked handoff on success (the response frame releases it).
func corrGood() bool {
	id := acquireCorr(&corr, func(response) {})
	if !wireSend(id) {
		releaseCorr(&corr, id)
		return false
	}
	//batonvet:ignore replypool ownership crossed the wire: the response frame releases the entry
	return true
}

// corrDeferred releases via defer: one registration covers every return.
func corrDeferred() (response, error) {
	id := acquireCorr(&corr, func(response) {})
	defer releaseCorr(&corr, id)
	if !wireSend(id) {
		return response{}, nil
	}
	return response{}, nil
}

// corrLeakOnError registers an entry and forgets it on the failed send: the
// completion can never fire and the entry lives until the node dies.
func corrLeakOnError() bool {
	id := acquireCorr(&corr, func(response) {})
	if !wireSend(id) {
		return false // want `leaks the correlation entry`
	}
	releaseCorr(&corr, id)
	return true
}

// corrLeakNoDirective is the handoff shape without the directive: the
// analyzer cannot see the ownership transfer and must say so.
func corrLeakNoDirective() bool {
	id := acquireCorr(&corr, func(response) {})
	if !wireSend(id) {
		releaseCorr(&corr, id)
		return false
	}
	return true // want `leaks the correlation entry`
}

// corrPeekIsNoRelease looks its entry up on the failed send — the lookup a
// partial response uses, which leaves the entry in the table — and returns
// as if that had released it.
func corrPeekIsNoRelease() bool {
	id := acquireCorr(&corr, func(response) {})
	if !wireSend(id) {
		lookupCorr(&corr, id)
		return false // want `leaks the correlation entry: no releaseCorr on this path after acquireCorr \(lookupCorr looks the entry up and leaves it acquired\)`
	}
	releaseCorr(&corr, id)
	return true
}

// mixedPairs uses both disciplines in one function: each is audited
// independently, and the reply-channel leak is caught even though the
// correlation entry is released on every path.
func mixedPairs() bool {
	id := acquireCorr(&corr, func(response) {})
	reply := getReply()
	if !wireSend(id) {
		releaseCorr(&corr, id)
		return false // want `leaks the pooled reply channel`
	}
	releaseCorr(&corr, id)
	putReply(reply)
	return true
}
