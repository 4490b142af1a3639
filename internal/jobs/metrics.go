package jobs

import "dip/internal/obs"

// Metrics is the job tier's metering surface: populated by the pool and
// the service wiring, snapshotted onto /metrics. The zero value is
// ready to use.
type Metrics struct {
	// Enqueued counts accepted submissions (journal replays excluded);
	// IdemHits counts submissions deduplicated by idempotency key.
	Enqueued obs.Counter
	IdemHits obs.Counter
	// Completed/Failed/Parked partition terminal jobs: success,
	// permanent failure, poison lane.
	Completed obs.Counter
	Failed    obs.Counter
	Parked    obs.Counter
	// Retries counts re-attempts; Panics counts contained attempt
	// panics; AckErrors counts settles the table refused (a journal
	// write that failed, or a closed journal during the last breath of
	// a drain).
	Retries   obs.Counter
	Panics    obs.Counter
	AckErrors obs.Counter
	// Replayed counts jobs re-enqueued from the journal at boot;
	// ReplayedSettled counts terminal results recovered at boot.
	Replayed        obs.Counter
	ReplayedSettled obs.Counter
	// InFlight is the number of jobs currently held by workers
	// (attempting or backing off).
	InFlight obs.Gauge
}

// MetricsSnapshot is the JSON shape of a Metrics plus the live table
// readings the tier composes at snapshot time.
type MetricsSnapshot struct {
	Enqueued        int64 `json:"enqueued"`
	IdemHits        int64 `json:"idempotency_hits"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Parked          int64 `json:"parked"`
	Retries         int64 `json:"retries"`
	Panics          int64 `json:"panics"`
	AckErrors       int64 `json:"ack_errors"`
	Replayed        int64 `json:"replayed"`
	ReplayedSettled int64 `json:"replayed_settled"`
	InFlight        int64 `json:"in_flight"`
	Depth           int64 `json:"queue_depth"`
	Stored          int64 `json:"stored_records"`
	StoreEvicted    int64 `json:"store_evicted"`
	Workers         int   `json:"workers"`
	Durable         bool  `json:"durable"`
}

// Snapshot composes the counters with the table's depth and occupancy.
func (m *Metrics) Snapshot(t *Table, workers int) MetricsSnapshot {
	return MetricsSnapshot{
		Enqueued:        m.Enqueued.Value(),
		IdemHits:        m.IdemHits.Value(),
		Completed:       m.Completed.Value(),
		Failed:          m.Failed.Value(),
		Parked:          m.Parked.Value(),
		Retries:         m.Retries.Value(),
		Panics:          m.Panics.Value(),
		AckErrors:       m.AckErrors.Value(),
		Replayed:        m.Replayed.Value(),
		ReplayedSettled: m.ReplayedSettled.Value(),
		InFlight:        m.InFlight.Value(),
		Depth:           int64(t.Depth()),
		Stored:          int64(t.Len()),
		StoreEvicted:    t.Evicted(),
		Workers:         workers,
		Durable:         t.Durable(),
	}
}
