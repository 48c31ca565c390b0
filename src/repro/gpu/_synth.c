/*
 * Native trace-synthesis interleave: one phase's per-structure streams
 * merged into one stream in the order that
 *
 *     order = rng.permutation(np.repeat(np.arange(k), counts))
 *
 * gives, each structure's accesses kept in their own order (the numpy
 * form in repro.workloads.interleave, bit for bit).
 *
 * The shuffle is numpy's Generator.shuffle of a 1-d array, drawn from
 * the caller's own bit generator through the function pointers numpy
 * publishes as rng.bit_generator.ctypes: for i = n-1 down to 1, swap
 * labels i and random_interval(i), numpy's masked rejection sampler
 * (next_uint32 for bounds up to 2^32-1, next_uint64 above).  The
 * generator is left where rng.permutation leaves it.  Slot s then
 * takes the next element of structure labels[s]'s stream through a
 * per-structure cursor -- what a stable argsort of the labels and a
 * scatter give, in O(n) with no sort -- and the write flags ride along
 * in the same pass.
 *
 * numpy does not promise Generator streams across versions, so the
 * Python caller checks this against rng.permutation once per process
 * before trusting it, and holds the bit generator's lock around the
 * call.  It also passes streams and flags of counts[l] elements each.
 */

#include <stdint.h>
#include <stdlib.h>

#define SYNTH_OK 0
#define SYNTH_NO_MEMORY -1

typedef uint32_t (*next_uint32_fn)(void *state);
typedef uint64_t (*next_uint64_fn)(void *state);

/* numpy's random_interval (distributions.c): uniform on [0, max]. */
static inline uint64_t random_interval(void *state, next_uint32_fn next32,
                                       next_uint64_fn next64, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max, value;
    /* smallest bit mask >= max */
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL) {
        while ((value = (next32(state) & mask)) > max)
            ;
    } else {
        while ((value = (next64(state) & mask)) > max)
            ;
    }
    return value;
}

/* Interleave k streams of counts[l] elements into lines[0..n) and
 * is_write[0..n), n = sum(counts): slot s gets
 * bases[l] + streams[l][c] and flags[l][c] for l = labels[s] and c
 * the number of earlier slots labelled l. */
int repro_synth_interleave(void *state, void *next_uint32,
                           void *next_uint64, int64_t k,
                           const int64_t *counts,
                           const int64_t *const *streams,
                           const int64_t *bases,
                           const uint8_t *const *flags,
                           int64_t *lines, uint8_t *is_write)
{
    next_uint32_fn next32 = (next_uint32_fn)next_uint32;
    next_uint64_fn next64 = (next_uint64_fn)next_uint64;
    int64_t n = 0;
    for (int64_t l = 0; l < k; l++)
        n += counts[l];
    int32_t *labels = malloc((size_t)n * sizeof(int32_t) + 1);
    int64_t *cursors = calloc((size_t)k + 1, sizeof(int64_t));
    if (labels == NULL || cursors == NULL) {
        free(labels);
        free(cursors);
        return SYNTH_NO_MEMORY;
    }
    /* np.repeat(np.arange(k), counts) */
    int64_t s = 0;
    for (int64_t l = 0; l < k; l++)
        for (int64_t c = 0; c < counts[l]; c++)
            labels[s++] = (int32_t)l;
    for (int64_t i = n - 1; i >= 1; i--) {
        int64_t j = (int64_t)random_interval(state, next32, next64,
                                             (uint64_t)i);
        int32_t t = labels[i];
        labels[i] = labels[j];
        labels[j] = t;
    }
    for (s = 0; s < n; s++) {
        int32_t l = labels[s];
        int64_t c = cursors[l]++;
        lines[s] = bases[l] + streams[l][c];
        is_write[s] = flags[l][c];
    }
    free(labels);
    free(cursors);
    return SYNTH_OK;
}
