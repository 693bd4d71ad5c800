/**
 * @file
 * The determinism digest: a running hash of everything the simulator
 * does, so two runs of the same workload can be proven bit-identical.
 *
 * The static side of this property is enforced by remora-lint (no
 * wall-clock, no platform randomness, no coroutine parameters that
 * dangle across suspension); the digest is the dynamic backstop. The
 * Simulator keeps two: a *schedule* digest, into which it folds every
 * scheduled, executed, and cancelled event, every policy choice and the
 * perturbation seed, and a *semantic* digest of the (time, kind, actor)
 * records components fold in at protocol-level milestones via
 * Simulator::noteDigest(). Any divergence between two runs — a
 * reordered wakeup, an extra retry, a different random draw — yields a
 * different digest, so a test can assert replay equality with one
 * integer compare instead of diffing traces. A change that alters only
 * the event structure (which events exist, not what they do) moves the
 * schedule digest and leaves the semantic one equal.
 *
 * Records fold one 64-bit word at a time, with one multiply per word:
 * the simulator folds a record for every schedule, run and cancel, so
 * a byte-at-a-time hash would cost as much as the event queue. Each
 * word step is a bijection of the running state, so a divergence, once
 * folded in, is never erased by later identical input.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace remora::sim {

/** Running accumulator over simulation activity. */
class DeterminismDigest
{
  public:
    /** FNV-1a 64-bit offset basis / prime (string folds). */
    static constexpr uint64_t kOffset = 14695981039346656037ull;
    static constexpr uint64_t kPrime = 1099511628211ull;
    /** Odd multiplier of the word fold (2^64 divided by the golden ratio). */
    static constexpr uint64_t kWordMul = 0x9e3779b97f4a7c15ull;

    /** Fold a 64-bit value as one word. */
    void
    mixU64(uint64_t v)
    {
        mixWord(v);
        ++records_;
    }

    /** Fold a string (FNV-1a over its bytes; actor names). */
    void
    mix(std::string_view s)
    {
        for (char c : s) {
            hash_ = (hash_ ^ static_cast<uint8_t>(c)) * kPrime;
        }
        ++records_;
    }

    /**
     * Fold one (time, kind, actor) record as words: the time, the kind
     * in 8-byte chunks (its length in the first chunk's top byte), and
     * the actor.
     */
    void
    mixRecord(int64_t time, std::string_view kind, uint64_t actor)
    {
        mixWord(static_cast<uint64_t>(time));
        uint64_t chunk = static_cast<uint64_t>(kind.size()) << 56;
        size_t i = 0;
        do {
            for (size_t j = 0; j < 8 && i + j < kind.size(); ++j) {
                chunk ^= static_cast<uint64_t>(
                             static_cast<uint8_t>(kind[i + j]))
                         << (8 * j);
            }
            mixWord(chunk);
            chunk = 0;
            i += 8;
        } while (i < kind.size());
        mixWord(actor);
        ++records_;
    }

    /** The digest so far. */
    uint64_t value() const { return hash_; }

    /** Number of records folded in (diagnostic; not part of the hash). */
    uint64_t records() const { return records_; }

  private:
    void
    mixWord(uint64_t w)
    {
        hash_ = std::rotl((hash_ ^ w) * kWordMul, 31);
    }

    uint64_t hash_ = kOffset;
    uint64_t records_ = 0;
};

} // namespace remora::sim
