package telemetry

// Shared metric names. The producers live in internal/pipeline (FeatCache),
// internal/service, internal/cluster, internal/client and this package's
// flight recorder; naming them here keeps the exposition surface documented in one place and
// lets the summary describe them without importing the producers.
const (
	// FeatCacheHits / FeatCacheMisses count FEAT-transform cache lookups,
	// labeled by FEAT kind ("scaler", "filter", "fisherlda"). A miss fits
	// the transform; a hit reuses previously fitted matrices.
	FeatCacheHits   = "mlaas_featcache_hits_total"
	FeatCacheMisses = "mlaas_featcache_misses_total"

	// ModelCache* count fitted-model cache traffic on the serving path
	// (internal/service): a hit serves a resident model, a miss runs a fit,
	// an eviction drops the LRU tail (the model transparently refits on its
	// next use), and a coalesced request waited on an identical in-flight
	// fit instead of starting its own.
	ModelCacheHits      = "mlaas_modelcache_hits_total"
	ModelCacheMisses    = "mlaas_modelcache_misses_total"
	ModelCacheEvictions = "mlaas_modelcache_evictions_total"
	ModelCacheCoalesced = "mlaas_modelcache_coalesced_total"

	// PredictPathHistogram splits predict-endpoint latency by serving path:
	// path="forward" served a resident model (pure forward pass),
	// path="refit" paid for a model fit first (cache miss, post-eviction
	// refill, or a coalesced wait on another request's fit).
	PredictPathHistogram = "mlaas_predict_path_duration_seconds"

	// PredictBatchSizeHistogram records how many instances each predict
	// request carried. Observed in rows, not seconds; the family uses
	// power-of-two count buckets (BatchSizeBuckets).
	PredictBatchSizeHistogram = "mlaas_predict_batch_size"

	// Traces* count flight-recorder admissions: kept (labeled by reason:
	// "error", "slowest", "sampled"), dropped (sampled out), and evicted
	// (pushed out of the ring FIFO by a newer trace).
	TracesKeptTotal    = "mlaas_traces_kept_total"
	TracesDroppedTotal = "mlaas_traces_dropped_total"
	TracesEvictedTotal = "mlaas_traces_evicted_total"

	// CodecRequestsTotal counts predict requests by wire codec,
	// codec="json"|"binary" — the adoption curve of the binary frame path.
	CodecRequestsTotal = "mlaas_codec_requests_total"

	// WireFrameBytesHistogram records the size in bytes of each binary
	// frame the server decodes or encodes, labeled dir="rx"|"tx". Uses
	// FrameBytesBuckets (power-of-four bytes), not duration buckets.
	WireFrameBytesHistogram = "mlaas_wire_frame_bytes"

	// Admission* instrument the bounded per-route admission queue (load
	// shedding past saturation): admitted requests, shed requests (503 +
	// Retry-After), and the current queue depth gauge, all labeled by
	// route.
	AdmissionAdmittedTotal = "mlaas_admission_admitted_total"
	AdmissionShedTotal     = "mlaas_admission_shed_total"
	AdmissionQueueDepth    = "mlaas_admission_queue_depth"

	// Store* instrument the disk tier beneath the fitted-model LRU
	// (internal/store): a store hit loaded an artifact instead of refitting,
	// a store miss found no artifact for the key (the fit runs and is then
	// persisted), a demotion wrote an evicted model to disk, a warm load
	// filled the cache from disk at boot, and a skip is an artifact the warm
	// scan could not decode (corrupt, or an older MLMF version).
	StoreHits      = "mlaas_store_hits_total"
	StoreMisses    = "mlaas_store_misses_total"
	StoreDemotions = "mlaas_store_demotions_total"
	StoreWarmLoads = "mlaas_store_warm_loads_total"
	StoreSkipped   = "mlaas_store_skipped_total"

	// StoreLoadHistogram records how long loading one model artifact from
	// disk took, labeled op="hit"|"warm" — the disk-tier counterpart of the
	// fit time it replaces.
	StoreLoadHistogram = "mlaas_store_load_duration_seconds"

	// Router* instrument the cluster front end (internal/cluster): requests
	// counts every proxied request by replica and outcome
	// ("ok"|"client_error"|"error"), state changes counts routable-state
	// transitions per replica ("up"|"warming"|"down") — each one is a ring
	// rebalance event, since keys owned by a down replica fail over to the
	// next owner — failovers counts attempts that moved to another owner
	// after a replica error, and repairs counts lazy re-provisioning of a
	// dataset or model onto an owner that was missing it (kind=
	// "dataset"|"model": late joiners and post-restart replicas heal on
	// first touch).
	RouterRequestsTotal            = "mlaas_router_requests_total"
	RouterReplicaStateChangesTotal = "mlaas_router_replica_state_changes_total"
	RouterFailoversTotal           = "mlaas_router_failovers_total"
	RouterRepairsTotal             = "mlaas_router_repairs_total"

	// ClientFailoversTotal counts client-side base-URL rotations: attempts
	// a Client with failover endpoints sent to a different endpoint than
	// the previous attempt because that attempt failed retryably.
	ClientFailoversTotal = "mlaas_client_failovers_total"
)

func init() {
	Default().Describe(FeatCacheHits, "FEAT transform cache hits (transform reused).")
	Default().Describe(FeatCacheMisses, "FEAT transform cache misses (transform fitted).")
	Default().Describe(ModelCacheHits, "Fitted-model cache hits (resident model served).")
	Default().Describe(ModelCacheMisses, "Fitted-model cache misses (model fitted).")
	Default().Describe(ModelCacheEvictions, "Fitted models evicted from the LRU (refit on next use).")
	Default().Describe(ModelCacheCoalesced, "Requests that waited on an identical in-flight fit.")
	Default().Describe(PredictPathHistogram, "Predict latency split by serving path (forward vs refit).")
	Default().Describe(PredictBatchSizeHistogram, "Instances per predict request (rows, power-of-two buckets).")
	Default().Describe(TracesKeptTotal, "Traces admitted to the flight recorder, by keep reason.")
	Default().Describe(TracesDroppedTotal, "Traces rejected by tail sampling.")
	Default().Describe(TracesEvictedTotal, "Kept traces evicted FIFO by ring overflow.")
	Default().Describe(CodecRequestsTotal, "Predict requests by wire codec (json or binary).")
	Default().Describe(WireFrameBytesHistogram, "Binary frame sizes in bytes, by direction (rx or tx).")
	Default().Describe(AdmissionAdmittedTotal, "Requests admitted past the admission queue, by route.")
	Default().Describe(AdmissionShedTotal, "Requests shed with 503 + Retry-After, by route.")
	Default().Describe(AdmissionQueueDepth, "Requests currently waiting in the admission queue, by route.")
	Default().Describe(StoreHits, "Model-cache misses served by loading a disk artifact instead of refitting.")
	Default().Describe(StoreMisses, "Model-cache misses with no disk artifact (fit ran, artifact persisted).")
	Default().Describe(StoreDemotions, "Evicted models demoted to disk artifacts.")
	Default().Describe(StoreWarmLoads, "Models warmed into the cache from disk at boot.")
	Default().Describe(StoreSkipped, "Disk artifacts the boot warm scan could not decode and skipped.")
	Default().Describe(StoreLoadHistogram, "Disk artifact load duration in seconds, by op (hit or warm).")
	Default().Describe(RouterRequestsTotal, "Requests proxied by the cluster router, by replica and outcome.")
	Default().Describe(RouterReplicaStateChangesTotal, "Replica routable-state transitions (ring rebalance events), by replica and state.")
	Default().Describe(RouterFailoversTotal, "Proxy attempts that failed over to another ring owner, by route.")
	Default().Describe(RouterRepairsTotal, "Datasets/models lazily re-provisioned onto an owner that was missing them, by kind.")
	Default().Describe(ClientFailoversTotal, "Client attempts that rotated to a failover endpoint.")
}
