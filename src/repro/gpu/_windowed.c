/*
 * Native windowed-service kernel: a compiled replay of
 * repro.gpu.service's numpy kernel, bit for bit.
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
 * Inputs are validated by the Python caller: equal lengths, finite
 * doubles, 0 <= channel_ids[i] < n_channels.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN_BATCH_WINDOW 32

/* ABI version of the library built from this file, _passes.c, _lru.c
 * and _synth.c; the loader refuses a library that disagrees. */
int repro_native_abi(void) { return 4; }

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

/* _simulate_sequential: one request at a time (tiny windows). */
static double simulate_sequential(const double *ready_base,
                                  const double *occupancy,
                                  const double *latency,
                                  const int64_t *channel_ids, int64_t n,
                                  double *channel_free, int64_t window,
                                  double *heap)
{
    int64_t size = 0;
    for (int64_t i = 0; i < n; i++) {
        double ready = ready_base[i];
        while (size >= window) {
            double popped = heap_pop(heap, &size);
            if (popped > ready)
                ready = popped;
        }
        int64_t channel = channel_ids[i];
        double free_at = channel_free[channel];
        double start = ready > free_at ? ready : free_at;
        double finish = start + occupancy[i];
        channel_free[channel] = finish;
        heap_push(heap, &size, finish + latency[i]);
    }
    double last = 0.0;
    for (int64_t k = 0; k < size; k++)
        if (k == 0 || heap[k] > last)
            last = heap[k];
    return last;
}

/*
 * Returns the last completion time; *status is 0 on success and -1 when
 * working memory could not be allocated.
 */
double repro_simulate_windowed(const double *ready_base,
                               const double *occupancy,
                               const double *latency,
                               const int64_t *channel_ids, int64_t n,
                               int64_t n_channels, int64_t window,
                               int *status)
{
    *status = 0;
    if (n <= 0)
        return 0.0;
    if (window < 1)
        window = 1;
    double *channel_free = calloc((size_t)n_channels, sizeof(double));
    if (channel_free == NULL) {
        *status = -1;
        return 0.0;
    }
    if (window < MIN_BATCH_WINDOW && n > window) {
        double *heap = malloc((size_t)window * sizeof(double));
        double last = 0.0;
        if (heap == NULL)
            *status = -1;
        else
            last = simulate_sequential(ready_base, occupancy, latency,
                                       channel_ids, n, channel_free,
                                       window, heap);
        free(heap);
        free(channel_free);
        return last;
    }

    /* A batch never exceeds the window, nor the stream. */
    int64_t cap = window < n ? window : n;
    size_t dbl = (size_t)cap * sizeof(double);
    double *pending = malloc(dbl), *merged = malloc(dbl);
    double *ready_buf = malloc(dbl), *total = malloc(dbl);
    double *completions = malloc(dbl);
    double *sort_tmp = malloc(dbl);
    int64_t *runs = malloc(((size_t)cap + 1) * sizeof(int64_t));
    int64_t *order = malloc((size_t)cap * sizeof(int64_t));
    int64_t *touched = malloc((size_t)cap * sizeof(int64_t));
    int64_t *slot = calloc((size_t)n_channels, sizeof(int64_t));
    double pend_hi = 0.0;
    if (!pending || !merged || !ready_buf || !total || !completions
        || !sort_tmp || !runs || !order || !touched || !slot) {
        *status = -1;
        goto done;
    }

    int64_t n_pending = 0; /* sorted in-flight completion times */
    int64_t cf_check = 0;
    int64_t i = 0;
    int64_t batch = window;
    while (i < n) {
        const double *ready;
        int cf_idle;
        int64_t n_pops;
        if (i < window) {
            /* Window not yet full: no pops, the throttle decides. */
            batch = window - i < n - i ? window - i : n - i;
            ready = ready_base + i;
            cf_idle = 0;
            n_pops = 0;
        } else {
            int64_t look = 2 * batch > 64 ? 2 * batch : 64;
            if (n - i < look)
                look = n - i;
            if (window < look)
                look = window;
            double frontier = pending[0];
            int throttle_slack = ready_base[i + look - 1] <= frontier;
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
                    ? pending[k] : dmax(ready_base[i + k], pending[k]);
                ready_buf[k] = r;
                if (k == look - 1)
                    break;
                double occ_lat = occupancy[i + k] + latency[i + k];
                double cand = cf_idle
                    ? r + occ_lat
                    : dmax(r, channel_free[channel_ids[i + k]]) + occ_lat;
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
        const int64_t *ch = channel_ids + i;
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
            double occ = occupancy[i + order[p]];
            acc = p == 0 ? occ : acc + occ;
            total[p] = acc;
        }
        double bound = ready_base[i + batch - 1] > pend_hi
            ? ready_base[i + batch - 1] : pend_hi;
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
            base += occupancy[i + k];
            base += offset;
            run_max = p == 0 ? base : dmax(run_max, base);
            double finish = (run_max - offset) + total[p];
            channel_free[c] = finish;
            completions[p] = finish + latency[i + k];
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

done:
    free(pending);
    free(merged);
    free(ready_buf);
    free(total);
    free(completions);
    free(sort_tmp);
    free(runs);
    free(order);
    free(touched);
    free(slot);
    free(channel_free);
    return pend_hi;
}
