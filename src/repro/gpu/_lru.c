/*
 * Native cache-hierarchy filter: the Table 1 L1-per-SM + memory-side
 * L2 hierarchy replayed one access at a time over a raw line stream,
 * as ReferenceCacheHierarchy in tests/reference_loops.py does.
 *
 * Access k runs on SM k % n_sms (the position restarts at 0 on every
 * call) and touches L1 set sm * l1_sets + line % l1_sets; on an L1
 * miss it touches L2 set channel * l2_sets + line % l2_sets of slice
 * channel = line % n_channels.  Each set keeps its assoc tags ordered
 * LRU to MRU in tags[set * assoc ...] plus a fill count; a hit moves
 * the tag to the MRU end, a miss fills the set or evicts its LRU tag.
 * The caller passes zeroed tag and fill arrays as scratch, so every
 * call starts from empty caches.  Integer-only, so the miss stream
 * equals the numpy kernel's and the reference loop's exactly.
 *
 * Inputs are validated by the Python caller: lines[k] >= 0 (mod() of
 * a negative line is a negative set index), positive geometry.
 */

#include <stdint.h>

/* line % m, with a mask when m is a power of two. */
static inline int64_t mod(int64_t line, int64_t m)
{
    return (m & (m - 1)) == 0 ? line & (m - 1) : line % m;
}

/* Touch line in one LRU set; 1 on a hit. */
static inline int touch(int64_t *tags, int64_t *fill, int64_t assoc,
                        int64_t line)
{
    int64_t n = *fill, k = n - 1;
    while (k >= 0 && tags[k] != line)  /* MRU first: reuse is recent */
        k--;
    int hit = k >= 0;
    if (!hit && n < assoc) {
        tags[n] = line;
        *fill = n + 1;
        return 0;
    }
    /* Rotate tags[k..n) down one place with line entering at the MRU
     * end; tags[k], the hit tag or the evicted LRU tag (k = 0),
     * drops out.  A carried rotation, not a shift loop: GCC turns the
     * shift into a memmove call, which costs more than these few
     * moves. */
    int64_t carry = line, stop = hit ? k : 0;
    for (int64_t j = n - 1; j >= stop; j--) {
        int64_t t = tags[j];
        tags[j] = carry;
        carry = t;
    }
    return hit;
}

/* Filter n lines; writes the miss positions in stream order and adds
 * per-SM L1 hits and per-channel L2 accesses and hits.  Returns the
 * number of misses. */
int64_t repro_lru_filter(const int64_t *lines, int64_t n,
                         int64_t n_sms, int64_t l1_sets, int64_t l1_assoc,
                         int64_t *l1_tags, int64_t *l1_fill,
                         int64_t n_channels, int64_t l2_sets,
                         int64_t l2_assoc, int64_t *l2_tags,
                         int64_t *l2_fill, int64_t *misses,
                         int64_t *l1_hits, int64_t *l2_accesses,
                         int64_t *l2_hits)
{
    int64_t n_misses = 0, sm = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t line = lines[k];
        int64_t set = sm * l1_sets + mod(line, l1_sets);
        if (touch(l1_tags + set * l1_assoc, l1_fill + set, l1_assoc,
                  line)) {
            l1_hits[sm]++;
        } else {
            int64_t channel = mod(line, n_channels);
            set = channel * l2_sets + mod(line, l2_sets);
            l2_accesses[channel]++;
            if (touch(l2_tags + set * l2_assoc, l2_fill + set, l2_assoc,
                      line))
                l2_hits[channel]++;
            else
                misses[n_misses++] = k;
        }
        if (++sm == n_sms)
            sm = 0;
    }
    return n_misses;
}
