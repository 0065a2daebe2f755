package job

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/spill"
)

// DefaultBatchSteps is the number of circuit steps framed into one
// spill record; at well under 100 NDJSON bytes a step a batch stays
// below the spill store's 1 MiB write buffer.
const DefaultBatchSteps = 4096

// LineCodec renders circuit steps to the NDJSON line format a job kind
// serves over HTTP.  jobkind.Kind satisfies it; the interface is
// restated here so the sink depends only on what it calls.
type LineCodec interface {
	// AppendLine appends one step's NDJSON line (with trailing
	// newline) to dst.
	AppendLine(dst []byte, st graph.Step) []byte
}

// CircuitSink persists a streamed Euler circuit to disk as it is
// emitted, so the result never has to fit in server memory.  Steps are
// buffered into fixed-size batches, rendered through the job kind's
// LineCodec and appended to a spill.DiskStore (record ID = batch
// index).  Each stored frame is exactly the NDJSON the HTTP circuit
// endpoint serves, so egress and the result cache move frames verbatim
// through IterateBatches.
//
// Append and Finish are called by the single worker goroutine running
// the job; IterateBatches may be called concurrently by any number of
// HTTP streams once Finish has returned.
type CircuitSink struct {
	mu        sync.Mutex
	store     *spill.DiskStore
	codec     LineCodec
	batchSize int
	buf       []graph.Step
	enc       []byte // reusable batch encode buffer
	records   int64
	steps     int64
	finished  bool

	// Close is deferred while readers hold the sink: eviction of a job
	// mid-stream must not close the log file under an in-flight
	// IterateBatches (unlinking the file is harmless, closing the fd is
	// not).
	refs    int
	closing bool
	closed  bool
}

// NewCircuitSink creates the backing log at path, storing batches as
// NDJSON frames in codec's line format.  batchSize <= 0 uses
// DefaultBatchSteps.
func NewCircuitSink(path string, batchSize int, codec LineCodec) (*CircuitSink, error) {
	if codec == nil {
		return nil, fmt.Errorf("job: circuit sink needs a line codec")
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSteps
	}
	ds, err := spill.NewDiskStore(path)
	if err != nil {
		return nil, err
	}
	return &CircuitSink{
		store:     ds,
		codec:     codec,
		batchSize: batchSize,
		buf:       make([]graph.Step, 0, batchSize),
	}, nil
}

// Append adds one step, flushing a full batch to disk.
func (c *CircuitSink) Append(s graph.Step) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return fmt.Errorf("job: append after Finish")
	}
	c.buf = append(c.buf, s)
	c.steps++
	if len(c.buf) >= c.batchSize {
		return c.flushLocked()
	}
	return nil
}

// Finish flushes the trailing partial batch and seals the sink for
// reading.
func (c *CircuitSink) Finish() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return nil
	}
	if err := c.flushLocked(); err != nil {
		return err
	}
	c.finished = true
	return nil
}

func (c *CircuitSink) flushLocked() error {
	if len(c.buf) == 0 {
		return nil
	}
	// The DiskStore writes the payload through its bufio writer before Put
	// returns, so one encode buffer serves every batch of the job.
	c.enc = c.enc[:0]
	for _, s := range c.buf {
		c.enc = c.codec.AppendLine(c.enc, s)
	}
	if err := c.store.Put(c.records, c.enc); err != nil {
		return err
	}
	c.records++
	c.buf = c.buf[:0]
	return nil
}

// Steps returns the number of steps appended so far.
func (c *CircuitSink) Steps() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// IterateBatches replays the persisted circuit's NDJSON frames in
// order: the scheduler's result cache copies a multi-million-step
// circuit log-to-log this way, and the HTTP layer streams the frames
// straight into the response.  It must only be called after Finish.
// The sink stays open for the duration even if Close is called
// concurrently.
func (c *CircuitSink) IterateBatches(fn func(frame []byte) error) error {
	c.mu.Lock()
	if !c.finished {
		c.mu.Unlock()
		return fmt.Errorf("job: iterate before Finish")
	}
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("job: iterate after Close")
	}
	c.refs++
	records := c.records
	c.mu.Unlock()
	defer c.release()
	for i := int64(0); i < records; i++ {
		data, err := c.store.Get(i)
		if err != nil {
			return err
		}
		if err := fn(data); err != nil {
			return err
		}
	}
	return nil
}

// Acquire takes a reader reference so a concurrent Close (retention
// eviction) is deferred until Release.  It returns false once the sink
// is closed or closing.
func (c *CircuitSink) Acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished || c.closed || c.closing {
		return false
	}
	c.refs++
	return true
}

// Release drops the reference taken by Acquire.
func (c *CircuitSink) Release() { c.release() }

// release drops a reader reference, completing a deferred Close when
// the last reader leaves.
func (c *CircuitSink) release() {
	c.mu.Lock()
	c.refs--
	doClose := c.refs == 0 && c.closing && !c.closed
	if doClose {
		c.closed = true
	}
	c.mu.Unlock()
	if doClose {
		c.store.Close()
	}
}

// Close releases the backing store.  If readers are mid-stream the
// close is deferred until the last one finishes; Close is idempotent.
func (c *CircuitSink) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if c.refs > 0 {
		c.closing = true
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.store.Close()
}
