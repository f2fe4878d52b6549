package llm

import "olympian/internal/overload"

// Batcher is the continuous-batching membership policy: which sequences are
// waiting for prefill, which have KV resident and wait for a batch slot, and
// which are in the in-flight decode batch. Sequences join and leave the
// batch only at token boundaries — between decode steps — instead of the
// fixed batch-then-flush of the CNN path.
//
// The batch is bounded by min(MaxSeqs, MaxBatchTokens): every decode
// sequence contributes exactly one token per step, so the token budget caps
// the batch width; a prefill pass processes its whole prompt in one kernel
// and therefore always runs alone (chunked prefill is out of scope).
//
// The prefill queue is one FIFO deque per class. Every entry carries an
// order key — Enqueue draws the next key upward, EnqueueFront the next key
// downward — so each deque stays sorted by key and the keys order all
// queued requests exactly as one FCFS slice with front re-entry would.
// Popping the front of the highest non-empty class is then that slice's
// "first request of the highest class" at O(classes), and a KV-denied
// prefill put back with EnqueueFront reuses the slot its pop freed.
//
// The Batcher is pure bookkeeping — no clock, no randomness — so both
// cluster engines drive bit-identical membership sequences through it.
type Batcher struct {
	maxSeqs int

	prefill     [overload.NumClasses]prefillDeque // waiting for (re)prefill
	queued      int                               // total across prefill deques
	front, back int64                             // next EnqueueFront / Enqueue keys
	ready       []*Request                        // prefilled, KV resident, waiting for a slot
	running     []*Request                        // in-flight decode batch, in join order
}

// prefillEntry is a queued request and its order key.
type prefillEntry struct {
	key int64
	r   *Request
}

// prefillDeque is a ring buffer of entries sorted by key; its capacity is 0
// or a power of two.
type prefillDeque struct {
	buf  []prefillEntry
	head int
	n    int
}

func (q *prefillDeque) at(i int) prefillEntry { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *prefillDeque) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]prefillEntry, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

func (q *prefillDeque) pushBack(e prefillEntry) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *prefillDeque) pushFront(e prefillEntry) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = e
	q.n++
}

func (q *prefillDeque) popFront() *Request {
	r := q.buf[q.head].r
	q.buf[q.head] = prefillEntry{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// NewBatcher bounds the decode batch by maxSeqs sequences and maxBatchTokens
// decode tokens per step (≤0 means unbounded for that knob; both unbounded
// defaults to 8 slots).
func NewBatcher(maxSeqs, maxBatchTokens int) *Batcher {
	slots := maxSeqs
	if slots <= 0 || (maxBatchTokens > 0 && maxBatchTokens < slots) {
		slots = maxBatchTokens
	}
	if slots <= 0 {
		slots = 8
	}
	return &Batcher{maxSeqs: slots}
}

// Slots returns the effective batch bound.
func (b *Batcher) Slots() int { return b.maxSeqs }

// Enqueue appends a request to the prefill queue.
func (b *Batcher) Enqueue(r *Request) {
	b.prefill[r.Class].pushBack(prefillEntry{key: b.back, r: r})
	b.back++
	b.queued++
}

// EnqueueFront puts a preempted (or KV-denied) request at the head of the
// prefill queue: recomputation preserves its position ahead of newer
// arrivals.
func (b *Batcher) EnqueueFront(r *Request) {
	b.front--
	b.prefill[r.Class].pushFront(prefillEntry{key: b.front, r: r})
	b.queued++
}

// QueueLen returns how many requests are waiting for prefill.
func (b *Batcher) QueueLen() int { return b.queued }

// Ready returns how many prefilled sequences are waiting for a slot.
func (b *Batcher) Ready() int { return len(b.ready) }

// Running returns the in-flight decode batch in join order. Callers must not
// mutate the slice.
func (b *Batcher) Running() []*Request { return b.running }

// HasWork reports whether anything is queued, ready, or running.
func (b *Batcher) HasWork() bool {
	return b.queued > 0 || len(b.ready) > 0 || len(b.running) > 0
}

// Idle reports the opposite of HasWork.
func (b *Batcher) Idle() bool { return !b.HasWork() }

// NextPrefill pops the next prefill candidate when a slot could eventually
// absorb it — prefilling a sequence the batch has no room for would only pin
// KV. Selection is class-then-FCFS: the first request of the highest waiting
// class wins, so under overload interactive prompts do not queue behind a
// backlog of batch work (within one class the order is strict FCFS, and
// preempted sequences re-entered at the front keep their place).
func (b *Batcher) NextPrefill() *Request {
	if b.queued == 0 || len(b.running)+len(b.ready) >= b.maxSeqs {
		return nil
	}
	for c := len(b.prefill) - 1; ; c-- {
		if b.prefill[c].n > 0 {
			b.queued--
			return b.prefill[c].popFront()
		}
	}
}

// Admit marks a prefilled (or ingested) sequence ready to join the batch at
// the next token boundary.
func (b *Batcher) Admit(r *Request) { b.ready = append(b.ready, r) }

// PeekReady returns the next sequence Promote would admit, or nil when none
// is ready or the batch is full — time-budgeted engines inspect it before
// committing the join.
func (b *Batcher) PeekReady() *Request {
	if len(b.ready) == 0 || len(b.running) >= b.maxSeqs {
		return nil
	}
	return b.ready[0]
}

// PromoteOne joins exactly one ready sequence (the PeekReady one) to the
// batch; nil when none is admissible.
func (b *Batcher) PromoteOne() *Request {
	r := b.PeekReady()
	if r == nil {
		return nil
	}
	b.ready[0] = nil
	b.ready = b.ready[1:]
	b.running = append(b.running, r)
	return r
}

// Promote moves ready sequences into the running batch while slots remain —
// the token-boundary join. Returns the sequences that joined.
func (b *Batcher) Promote() []*Request {
	var joined []*Request
	for len(b.ready) > 0 && len(b.running) < b.maxSeqs {
		r := b.ready[0]
		b.ready[0] = nil
		b.ready = b.ready[1:]
		b.running = append(b.running, r)
		joined = append(joined, r)
	}
	return joined
}

// Leave removes a finished (or failed) sequence from the running batch — the
// token-boundary leave.
func (b *Batcher) Leave(r *Request) {
	for i, x := range b.running {
		if x == r {
			b.running = append(b.running[:i], b.running[i+1:]...)
			return
		}
	}
}

// Victim picks and removes the preemption victim, class-aware: the lowest
// priority class first (batch pays for KV pressure before interactive), and
// within a class the newest sequence (highest local ID — the latest arrival
// has the least sunk cost). With one or zero sequences running it returns
// nil: a sequence that cannot grow even alone must fail, not self-preempt
// forever.
func (b *Batcher) Victim() *Request {
	if len(b.running) < 2 {
		return nil
	}
	vi := 0
	for i, r := range b.running[1:] {
		v := b.running[vi]
		if r.Class < v.Class || (r.Class == v.Class && r.ID > v.ID) {
			vi = i + 1
		}
	}
	v := b.running[vi]
	b.running = append(b.running[:vi], b.running[vi+1:]...)
	return v
}

// KVTokens sums the cache footprint of the running batch — the k in the
// decode-step cost model.
func (b *Batcher) KVTokens() int {
	total := 0
	for _, r := range b.running {
		total += r.KVTokens()
	}
	return total
}

// TakeAll empties every set and returns the former members in queue, ready,
// running order — crash unwinding fails them all. The queued requests come
// back merged by order key: the FCFS order with front re-entries first.
func (b *Batcher) TakeAll() (queued, ready, running []*Request) {
	if b.queued > 0 {
		queued = make([]*Request, 0, b.queued)
	}
	var pos [overload.NumClasses]int
	for len(queued) < b.queued {
		pick := -1
		for c := range b.prefill {
			q := &b.prefill[c]
			if pos[c] < q.n && (pick < 0 || q.at(pos[c]).key < b.prefill[pick].at(pos[pick]).key) {
				pick = c
			}
		}
		queued = append(queued, b.prefill[pick].at(pos[pick]).r)
		pos[pick]++
	}
	ready, running = b.ready, b.running
	b.prefill, b.queued = [overload.NumClasses]prefillDeque{}, 0
	b.ready, b.running = nil, nil
	return queued, ready, running
}
