#ifndef C4CAM_CORE_RETRYPOLICY_H
#define C4CAM_CORE_RETRYPOLICY_H

/**
 * @file
 * Retry policy for transient device faults in the serving tier.
 *
 * Only sim::TransientFault is retryable: the device survived, the
 * query window was rolled back at the fault site, and a re-serve (on
 * the same or another replica) is bit-identical to a fault-free run.
 * Permanent failures (c4cam::ExecutionError, including
 * sim::PermanentFault) are never retried -- retrying dead hardware
 * burns the backoff budget without any chance of success; the sharded
 * tier quarantines the shard instead.
 */

#include <cstdint>

namespace c4cam::core {

/** Bounded-retry configuration for ServingEngine / ShardedEngine. */
struct RetryPolicy
{
    /**
     * Total serve attempts per query (first try included). 1 =
     * retries disabled (the pre-fault-tolerance behaviour).
     */
    int maxAttempts = 1;

    /** Base backoff before the first retry, doubling per retry up to
     *  10 ms and jittered deterministically (support/Backoff.h);
     *  0 = retry immediately. */
    std::int64_t backoffUs = 0;

    bool
    enabled() const
    {
        return maxAttempts > 1;
    }
};

} // namespace c4cam::core

#endif // C4CAM_CORE_RETRYPOLICY_H
