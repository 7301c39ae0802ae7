/**
 * @file
 * Flat containers for per-message state on the hot path.
 *
 *  - FlatMap: an open-addressing hash map from 64-bit keys to values,
 *    linear probing with backward-shift erase (no tombstones), so a
 *    find, insert or erase touches one contiguous run of slots and,
 *    once the table has grown to its working size, allocates nothing.
 *    Iteration order is unspecified: callers that need a
 *    deterministic order collect the keys and sort them.
 *  - Slab: a generation-checked slot table (the idiom of the
 *    Simulator's event slots). put() returns a handle encoding
 *    (generation, slot); take() moves the value out and recycles the
 *    slot, bumping its generation, so a stale handle — one whose
 *    value was already taken, even if the slot now holds another —
 *    finds nothing.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace corm::sim {

/** Open-addressing hash map keyed by std::uint64_t (any key value). */
template <class V>
class FlatMap
{
  public:
    /** The value stored at @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        if (count_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    /**
     * The value at @p key, value-initialised first if absent; the
     * flag says whether it was inserted. The pointer is valid until
     * the next insert or erase.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t key)
    {
        if ((count_ + 1) * 2 > slots_.size())
            grow();
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.value = V{};
                ++count_;
                return {&s.value, true};
            }
            if (s.key == key)
                return {&s.value, false};
        }
    }

    /** Remove @p key; false if it was absent. */
    bool
    erase(std::uint64_t key)
    {
        if (count_ == 0)
            return false;
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
        }
        // Backward-shift: pull every later member of the probe run
        // whose home does not lie in (hole, member] into the hole.
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (stays)
                continue;
            slots_[hole].key = slots_[j].key;
            slots_[hole].value = std::move(slots_[j].value);
            hole = j;
        }
        slots_[hole].used = false;
        slots_[hole].value = V{};
        --count_;
        return true;
    }

    std::size_t size() const { return count_; }

    /** Drop every entry; the slot array keeps its size. */
    void
    clear()
    {
        for (Slot &s : slots_) {
            if (s.used) {
                s.used = false;
                s.value = V{};
            }
        }
        count_ = 0;
    }

    /** Visit every (key, value) pair, in unspecified order. */
    template <class Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_)
            if (s.used)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        bool used = false;
        V value{};
    };

    /** Fibonacci hashing: the product's top bits index the table. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL)
                                        >> shift_);
    }

    /** Double the table (16 slots at first) and re-insert. */
    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t cap = old.empty() ? 16 : old.size() * 2;
        slots_ = std::vector<Slot>(cap);
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        count_ = 0;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i].used = true;
            slots_[i].key = s.key;
            slots_[i].value = std::move(s.value);
            ++count_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

/** Generation-checked slot table; see the file comment. */
template <class T>
class Slab
{
  public:
    /** (generation << 32) | (slot + 1); 0 never names a value. */
    using Handle = std::uint64_t;

    /** Store @p value; the handle is valid until take(). */
    Handle
    put(const T &value)
    {
        std::uint32_t idx;
        if (!free_.empty()) {
            idx = free_.back();
            free_.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Slot &s = slots_[idx];
        s.value = value;
        s.live = true;
        ++live_;
        return (static_cast<Handle>(s.generation) << 32)
            | (static_cast<Handle>(idx) + 1);
    }

    /**
     * Move the value named by @p h into @p out and recycle its slot.
     * False, with @p out untouched, for a stale or null handle.
     */
    bool
    take(Handle h, T &out)
    {
        const std::uint64_t low = h & 0xffffffffu;
        if (low == 0 || low > slots_.size())
            return false;
        const auto idx = static_cast<std::uint32_t>(low - 1);
        Slot &s = slots_[idx];
        if (!s.live || s.generation != static_cast<std::uint32_t>(h >> 32))
            return false;
        out = std::move(s.value);
        s.live = false;
        ++s.generation; // every handle minted for this use goes stale
        free_.push_back(idx);
        --live_;
        return true;
    }

    /** Values stored and not yet taken. */
    std::size_t size() const { return live_; }

  private:
    struct Slot
    {
        T value{};
        std::uint32_t generation = 0;
        bool live = false;
    };

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    std::size_t live_ = 0;
};

} // namespace corm::sim
