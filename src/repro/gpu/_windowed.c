/*
 * Native windowed-service kernel: a compiled replay of
 * repro.gpu.service's numpy kernel, bit for bit, over a streamed input.
 *
 * It runs the numpy kernel's exact batch schedule and float operations:
 * the sequential heap replay below MIN_BATCH_WINDOW, the look-ahead
 * batch sizing, the rationed channel-idle probe, the stable per-channel
 * order, the sequential cumulative sum, the K * segment_id offset
 * running max and the sorted pending merge.  Every double is produced
 * by the same operations in the same order as in numpy, so the result
 * equals the numpy kernel's exactly.  Build without -ffast-math or
 * -march=native and with -ffp-contract=off: each of those can change
 * the last bits (reassociation, FMA contraction).
 *
 * A batch starting at access i never reads past access i + window, so
 * the core pulls each access's ready time, occupancy, latency and
 * channel through one sliding buffer of STREAM_SPAN windows (the window
 * floored at MIN_BATCH_WINDOW, the buffer capped at n), filled in
 * access order by a producer: the event pass (_passes.c), which makes
 * each access's inputs from its per-zone tables, or
 * repro_simulate_windowed below, which copies them from the caller's
 * arrays.  Working memory is one allocation of O(window + channels)
 * words, whatever the stream's length.
 *
 * repro_simulate_windowed checks every channel id against n_channels;
 * the other inputs are the caller's: equal lengths (the Python binding
 * checks them) and finite doubles.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN_BATCH_WINDOW 32

/* Windows held by the sliding buffer: a refill moves under one window
 * of held accesses and produces at least STREAM_SPAN - 1 new ones. */
#define STREAM_SPAN 4

/* Statuses; a producer's own failure status is passed through. */
#define WINDOWED_OK 0
#define WINDOWED_NO_MEMORY -1
#define WINDOWED_BAD_INDEX -2

/* ABI version of the library built from this file, _passes.c, _lru.c
 * and _synth.c; the loader refuses a library that disagrees. */
int repro_native_abi(void) { return 5; }

static inline double dmax(double a, double b) { return a >= b ? a : b; }
static inline double dmin(double a, double b) { return a <= b ? a : b; }

/* Ascending sort of n doubles: a natural merge sort, cheap on the few
 * ascending runs that per-channel completions form.  tmp holds n
 * doubles, runs n + 1 indices. */
static void sort_doubles(double *v, int64_t n, double *tmp, int64_t *runs)
{
    int64_t n_runs = 1;
    runs[0] = 0;
    for (int64_t k = 1; k < n; k++)
        if (v[k] < v[k - 1])
            runs[n_runs++] = k;
    runs[n_runs] = n;
    double *src = v, *dst = tmp;
    while (n_runs > 1) {
        int64_t out = 0;
        for (int64_t r = 0; r < n_runs; r += 2) {
            int64_t lo = runs[r], mid = runs[r + 1];
            int64_t hi = r + 1 < n_runs ? runs[r + 2] : mid;
            int64_t a = lo, b = mid, m = lo;
            while (a < mid && b < hi)
                dst[m++] = src[a] <= src[b] ? src[a++] : src[b++];
            while (a < mid)
                dst[m++] = src[a++];
            while (b < hi)
                dst[m++] = src[b++];
            runs[out++] = lo;
        }
        runs[out] = n;
        n_runs = out;
        double *t = src;
        src = dst;
        dst = t;
    }
    if (src != v)
        memcpy(v, src, (size_t)n * sizeof(double));
}

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Min-heap of doubles (only the popped values matter, never ties). */
static void heap_push(double *h, int64_t *size, double x)
{
    int64_t k = (*size)++;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (h[parent] <= x)
            break;
        h[k] = h[parent];
        k = parent;
    }
    h[k] = x;
}

static double heap_pop(double *h, int64_t *size)
{
    double top = h[0];
    double x = h[--(*size)];
    int64_t n = *size, k = 0;
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= n)
            break;
        if (child + 1 < n && h[child + 1] < h[child])
            child++;
        if (h[child] >= x)
            break;
        h[k] = h[child];
        k = child;
    }
    if (n > 0)
        h[k] = x;
    return top;
}

/* Fills accesses [start, start + count) into the four arrays, in access
 * order; returns WINDOWED_OK or a negative status that stops the
 * replay. */
typedef int (*windowed_fill)(void *ctx, int64_t start, int64_t count,
                             double *ready, double *occupancy,
                             double *latency, int64_t *channel);

/* The sliding buffer: accesses [base, end) at positions 0 .. end-base. */
struct stream {
    windowed_fill fill;
    void *ctx;
    int64_t n, cap, base, end;
    double *ready, *occupancy, *latency;
    int64_t *channel;
};

/* Hold accesses [i, i + need) (need <= cap, base <= i <= end): move the
 * held tail from i to the front and fill up to the capacity. */
static int stream_hold(struct stream *s, int64_t i, int64_t need)
{
    if (i + need <= s->end)
        return WINDOWED_OK;
    int64_t from = i - s->base, live = s->end - i;
    if (from > 0 && live > 0) {
        size_t dbl = (size_t)live * sizeof(double);
        memmove(s->ready, s->ready + from, dbl);
        memmove(s->occupancy, s->occupancy + from, dbl);
        memmove(s->latency, s->latency + from, dbl);
        memmove(s->channel, s->channel + from,
                (size_t)live * sizeof(int64_t));
    }
    s->base = i;
    int64_t stop = s->n - i < s->cap ? s->n : i + s->cap;
    int status = s->fill(s->ctx, s->end, stop - s->end, s->ready + live,
                         s->occupancy + live, s->latency + live,
                         s->channel + live);
    s->end = stop;
    return status;
}

/* _simulate_sequential: one request at a time (tiny windows). */
static int simulate_sequential(struct stream *s, double *channel_free,
                               int64_t window, double *heap, double *last)
{
    int64_t size = 0;
    for (int64_t i = 0; i < s->n; i++) {
        if (i == s->end) {
            int status = stream_hold(s, i, 1);
            if (status != WINDOWED_OK)
                return status;
        }
        int64_t at = i - s->base;
        double ready = s->ready[at];
        while (size >= window) {
            double popped = heap_pop(heap, &size);
            if (popped > ready)
                ready = popped;
        }
        int64_t channel = s->channel[at];
        double free_at = channel_free[channel];
        double start = ready > free_at ? ready : free_at;
        double finish = start + s->occupancy[at];
        channel_free[channel] = finish;
        heap_push(heap, &size, finish + s->latency[at]);
    }
    *last = 0.0;
    for (int64_t k = 0; k < size; k++)
        if (k == 0 || heap[k] > *last)
            *last = heap[k];
    return WINDOWED_OK;
}

/*
 * The replay of n accesses drawn from fill(ctx, ...) over n_channels
 * channels; returns the last completion time.  *status is WINDOWED_OK,
 * WINDOWED_NO_MEMORY, or the producer's failure status (the result is
 * then 0.0).  Shared with _passes.c, not exported from the library.
 */
__attribute__((visibility("hidden")))
double windowed_replay(windowed_fill fill, void *ctx, int64_t n,
                       int64_t n_channels, int64_t window, int *status)
{
    *status = WINDOWED_OK;
    if (n <= 0)
        return 0.0;
    if (n_channels < 1) { /* no channel id can be valid */
        *status = WINDOWED_BAD_INDEX;
        return 0.0;
    }
    if (window < 1)
        window = 1;
    int sequential = window < MIN_BATCH_WINDOW && n > window;
    int64_t span = window < MIN_BATCH_WINDOW ? MIN_BATCH_WINDOW : window;
    int64_t cap = span > n / STREAM_SPAN ? n : STREAM_SPAN * span;
    /* A batch never exceeds the window, nor the stream. */
    int64_t batch_cap = window < n ? window : n;

    /* One block: the buffer's ready, occupancy and latency, the channel
     * free levels and the core's doubles (the heap, or six batch
     * arrays), then the buffer's channels and the core's integers (run
     * bounds, order, touched channels and per-channel slots). */
    size_t n_dbl = 3 * (size_t)cap + (size_t)n_channels
        + (sequential ? (size_t)window : 6 * (size_t)batch_cap);
    size_t n_int = (size_t)cap
        + (sequential ? 0 : 3 * (size_t)batch_cap + 1 + (size_t)n_channels);
    double *block = malloc((n_dbl + n_int) * sizeof(double));
    if (block == NULL) {
        *status = WINDOWED_NO_MEMORY;
        return 0.0;
    }
    struct stream s = {fill, ctx, n, cap, 0, 0, NULL, NULL, NULL, NULL};
    double *d = block;
    s.ready = d;
    s.occupancy = d + cap;
    s.latency = d + 2 * cap;
    double *channel_free = d + 3 * cap;
    d = channel_free + n_channels;
    int64_t *w = (int64_t *)(block + n_dbl);
    s.channel = w;
    w += cap;
    memset(channel_free, 0, (size_t)n_channels * sizeof(double));

    double last = 0.0;
    if (sequential) {
        *status = simulate_sequential(&s, channel_free, window, d, &last);
        free(block);
        return *status == WINDOWED_OK ? last : 0.0;
    }

    double *pending = d, *merged = d + batch_cap;
    double *ready_buf = d + 2 * batch_cap, *total = d + 3 * batch_cap;
    double *completions = d + 4 * batch_cap;
    double *sort_tmp = d + 5 * batch_cap;
    int64_t *runs = w, *order = w + batch_cap + 1;
    int64_t *touched = order + batch_cap, *slot = touched + batch_cap;
    memset(slot, 0, (size_t)n_channels * sizeof(int64_t));

    double pend_hi = 0.0;
    int64_t n_pending = 0; /* sorted in-flight completion times */
    int64_t cf_check = 0;
    int64_t i = 0;
    int64_t batch = window;
    while (i < n) {
        /* This batch reads accesses i .. i + window - 1 at most, held
         * at ready_base[0 ..] and the others. */
        int held = stream_hold(&s, i, window < n - i ? window : n - i);
        if (held != WINDOWED_OK) {
            *status = held;
            pend_hi = 0.0;
            break;
        }
        int64_t at = i - s.base;
        const double *ready_base = s.ready + at;
        const double *occupancy = s.occupancy + at;
        const double *latency = s.latency + at;
        const int64_t *ch = s.channel + at;
        const double *ready;
        int cf_idle;
        int64_t n_pops;
        if (i < window) {
            /* Window not yet full: no pops, the throttle decides. */
            batch = window - i < n - i ? window - i : n - i;
            ready = ready_base;
            cf_idle = 0;
            n_pops = 0;
        } else {
            int64_t look = 2 * batch > 64 ? 2 * batch : 64;
            if (n - i < look)
                look = n - i;
            if (window < look)
                look = window;
            double frontier = pending[0];
            int throttle_slack = ready_base[look - 1] <= frontier;
            if (cf_check == 0) {
                double hi = channel_free[0];
                for (int64_t c = 1; c < n_channels; c++)
                    hi = dmax(hi, channel_free[c]);
                cf_idle = hi <= frontier;
                cf_check = cf_idle ? 0 : 16;
            } else {
                cf_idle = 0;
                cf_check--;
            }
            /* The validity mask is a True-prefix (non-increasing
             * prefix-min floors against sorted pops), so counting
             * stops at its first False. */
            int64_t extra = 0;
            double floor_min = 0.0;
            int64_t k = 0;
            for (; k < look; k++) {
                double r = throttle_slack
                    ? pending[k] : dmax(ready_base[k], pending[k]);
                ready_buf[k] = r;
                if (k == look - 1)
                    break;
                double occ_lat = occupancy[k] + latency[k];
                double cand = cf_idle
                    ? r + occ_lat
                    : dmax(r, channel_free[ch[k]]) + occ_lat;
                floor_min = k == 0 ? cand : dmin(floor_min, cand);
                if (!(floor_min >= pending[k + 1]))
                    break;
                extra++;
            }
            batch = 1 + extra;
            ready = ready_buf;
            n_pops = batch;
        }

        /* Stable grouping of the batch by channel: a counting sort over
         * the channels it touches, visited in ascending order. */
        int64_t n_touched = 0;
        for (int64_t k = 0; k < batch; k++)
            if (slot[ch[k]]++ == 0)
                touched[n_touched++] = ch[k];
        if (n_touched > 32) { /* below, qsort's call overhead dominates */
            qsort(touched, (size_t)n_touched, sizeof(int64_t), cmp_int64);
        } else {
            for (int64_t t = 1; t < n_touched; t++) {
                int64_t c = touched[t];
                int64_t j = t - 1;
                while (j >= 0 && touched[j] > c) {
                    touched[j + 1] = touched[j];
                    j--;
                }
                touched[j + 1] = c;
            }
        }
        int64_t pos = 0;
        for (int64_t t = 0; t < n_touched; t++) {
            int64_t count = slot[touched[t]];
            slot[touched[t]] = pos;
            pos += count;
        }
        for (int64_t k = 0; k < batch; k++)
            order[slot[ch[k]]++] = k;
        for (int64_t t = 0; t < n_touched; t++)
            slot[touched[t]] = 0;

        /* Sequential cumulative occupancy in channel order. */
        double acc = 0.0;
        for (int64_t p = 0; p < batch; p++) {
            double occ = occupancy[order[p]];
            acc = p == 0 ? occ : acc + occ;
            total[p] = acc;
        }
        double bound = ready_base[batch - 1] > pend_hi
            ? ready_base[batch - 1] : pend_hi;
        double shift = 2.0 * (bound + total[batch - 1] + 1.0);

        /* FIFO chaining: segmented running max via the K-offset global
         * running max.  Each channel's free level is read at its
         * segment start, before the segment writes it; the segment's
         * last write is the FIFO tail. */
        double run_max = 0.0, offset = 0.0, free_at = 0.0;
        int64_t segment = 0;
        for (int64_t p = 0; p < batch; p++) {
            int64_t k = order[p];
            int64_t c = ch[k];
            if (p == 0 || c != ch[order[p - 1]]) {
                segment++;
                offset = (double)segment * shift;
                free_at = channel_free[c];
            }
            double base = ready[k];
            if (!cf_idle)
                base = dmax(base, free_at);
            base -= total[p];
            base += occupancy[k];
            base += offset;
            run_max = p == 0 ? base : dmax(run_max, base);
            double finish = (run_max - offset) + total[p];
            channel_free[c] = finish;
            completions[p] = finish + latency[k];
        }

        /* pending = sorted(pending[n_pops:] + completions). */
        sort_doubles(completions, batch, sort_tmp, runs);
        int64_t a = n_pops, b = 0, m = 0;
        while (a < n_pending && b < batch)
            merged[m++] = pending[a] <= completions[b]
                ? pending[a++] : completions[b++];
        while (a < n_pending)
            merged[m++] = pending[a++];
        while (b < batch)
            merged[m++] = completions[b++];
        double *swap = pending;
        pending = merged;
        merged = swap;
        n_pending = m;
        pend_hi = pending[n_pending - 1];
        i += batch;
    }

    free(block);
    return pend_hi;
}

/* The caller's arrays as a producer, every channel id checked. */
struct arrays {
    const double *ready, *occupancy, *latency;
    const int64_t *channel;
    int64_t n_channels;
};

static int fill_arrays(void *ctx, int64_t start, int64_t count,
                       double *ready, double *occupancy, double *latency,
                       int64_t *channel)
{
    const struct arrays *in = ctx;
    for (int64_t k = 0; k < count; k++) {
        int64_t c = in->channel[start + k];
        if ((uint64_t)c >= (uint64_t)in->n_channels)
            return WINDOWED_BAD_INDEX;
        channel[k] = c;
    }
    size_t dbl = (size_t)count * sizeof(double);
    memcpy(ready, in->ready + start, dbl);
    memcpy(occupancy, in->occupancy + start, dbl);
    memcpy(latency, in->latency + start, dbl);
    return WINDOWED_OK;
}

/*
 * The replay over the caller's arrays (the library's test entry).
 * Returns the last completion time; *status is 0 on success, -1 when
 * working memory could not be allocated and -2 when a channel id lies
 * outside [0, n_channels).
 */
double repro_simulate_windowed(const double *ready_base,
                               const double *occupancy,
                               const double *latency,
                               const int64_t *channel_ids, int64_t n,
                               int64_t n_channels, int64_t window,
                               int *status)
{
    struct arrays in = {ready_base, occupancy, latency, channel_ids,
                        n_channels};
    return windowed_replay(fill_arrays, &in, n, n_channels, window,
                           status);
}
