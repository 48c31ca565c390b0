/*
 * Native engine passes: each engine's per-access work in one compiled
 * loop, from footprint page indices, write flags and a validated zone
 * map to what the engine reduces.  A compiled port of the numpy passes
 * in repro.gpu.service, bit for bit.
 *
 * Both passes share one access loop: z = zone_map[page], and the
 * occupancy weight is the zone's write factor for a write and 1.0
 * otherwise (numpy's one gather from [1]*Z + factors at z + Z*is_write).
 *
 * - repro_throughput_pass fills counts[e*Z+z] and occupancy[e*Z+z]
 *   over the epoch runs (epoch e starts at access ceil(e*n/E)), each an
 *   ordered double sum from 0.0: what np.bincount does.
 * - repro_event_pass is the producer of the windowed core
 *   (_windowed.c): as the core asks for the next accesses, it picks
 *   each one's channel (detailed: a per-zone round-robin cursor, equal
 *   to offset[z] + rank % channels[z]; banked: the line/row/bank maths
 *   and a per-bank open-row table, equal to the stable-sort adjacency
 *   test), makes its occupancy, latency and ready time into the core's
 *   sliding buffer and adds its occupancy to its channel's busy time
 *   and one to its zone's count, in access order (as np.bincount
 *   sums).  It returns the core's last completion, so no per-access
 *   array of the stream's length is ever allocated.
 *
 * - repro_throughput_tail reduces the throughput bins to the engine's
 *   per-epoch bandwidth, latency and compute bounds, epoch times, bytes
 *   per zone and their sums, repeating numpy's summation order;
 *   repro_throughput_run is the bins and the tail in one call.
 *
 * Every double comes from the same operations in the same order as the
 * numpy path.  A zone map is read in place, in its own signed integer
 * width (no copy), and every entry is checked against the topology on
 * each call; page and zone indices are checked as they are read too, so
 * an array changed after the Python caller validated it cannot read past
 * a table.  The caller validates the per-zone tables.
 */

#include <stdint.h>
#include <stdlib.h>

#define PASS_OK 0
#define PASS_NO_MEMORY -1
#define PASS_BAD_INDEX -2
#define PASS_BAD_ZONE -3

/* The windowed core (_windowed.c), fed by a producer; its statuses
 * share PASS_NO_MEMORY and PASS_BAD_INDEX's values. */
typedef int (*windowed_fill)(void *ctx, int64_t start, int64_t count,
                             double *ready, double *occupancy,
                             double *latency, int64_t *channel);
double windowed_replay(windowed_fill fill, void *ctx, int64_t n,
                       int64_t n_channels, int64_t window, int *status);

/* Entry p of a zone map stored in its own signed width (itemsize 1, 2,
 * 4 or 8 bytes); the branch goes the same way for every access. */
static inline int64_t map_entry(const void *map, int64_t itemsize,
                                int64_t p)
{
    switch (itemsize) {
    case 1: return ((const int8_t *)map)[p];
    case 2: return ((const int16_t *)map)[p];
    case 4: return ((const int32_t *)map)[p];
    default: return ((const int64_t *)map)[p];
    }
}

/* Zone of access i, or -1 when its page lies outside the map or the
 * map names no zone of the topology. */
static inline int64_t access_zone(const int64_t *pages, int64_t i,
                                  const void *zone_map, int64_t itemsize,
                                  int64_t footprint, int64_t n_zones)
{
    int64_t page = pages[i];
    if ((uint64_t)page >= (uint64_t)footprint)
        return -1;
    int64_t z = map_entry(zone_map, itemsize, page);
    return (uint64_t)z < (uint64_t)n_zones ? z : -1;
}

/* [1]*Z + write_factors: access i's weight is weights[z + Z*is_write[i]],
 * one load instead of an unpredictable branch on the flag. */
static double *weight_table(const double *write_factors, int64_t n_zones)
{
    double *weights = malloc((size_t)(2 * n_zones) * sizeof(double) + 1);
    if (weights != NULL)
        for (int64_t z = 0; z < n_zones; z++) {
            weights[z] = 1.0;
            weights[n_zones + z] = write_factors[z];
        }
    return weights;
}

static inline double access_weight(const uint8_t *is_write, int64_t i,
                                   const double *weights, int64_t n_zones,
                                   int64_t z)
{
    return is_write != NULL ? weights[z + n_zones * (is_write[i] != 0)]
                            : 1.0;
}

/* Every entry of the zone map in [0, n_zones), read in the map's own
 * width, so a map changed in place after the caller last validated it
 * is rejected as a whole, not only at the pages the stream reads. */
#define ZONES_IN_RANGE(type)                                        \
    for (int64_t p = 0; p < footprint; p++)                         \
        if ((uint64_t)(int64_t)((const type *)map)[p]               \
                >= (uint64_t)n_zones)                               \
            return PASS_BAD_ZONE;                                   \
    return PASS_OK

static int check_zone_map(const void *map, int64_t itemsize,
                          int64_t footprint, int64_t n_zones)
{
    switch (itemsize) {
    case 1: ZONES_IN_RANGE(int8_t);
    case 2: ZONES_IN_RANGE(int16_t);
    case 4: ZONES_IN_RANGE(int32_t);
    default: ZONES_IN_RANGE(int64_t);
    }
}

/*
 * counts and occupancy hold n_epochs * n_zones zeros on entry.  Counts
 * are summed as integers (exact, like np.bincount's) and stored as
 * doubles at each epoch's end.
 */
static int throughput_bins(const int64_t *pages, const uint8_t *is_write,
                           int64_t n, const void *zone_map,
                           int64_t map_itemsize, int64_t footprint,
                           const double *write_factors,
                           int64_t n_zones, int64_t n_epochs,
                           double *counts, double *occupancy)
{
    int status = PASS_OK;
    double *weights = weight_table(write_factors, n_zones);
    int64_t *tally = calloc((size_t)n_zones + 1, sizeof(int64_t));
    if (weights == NULL || tally == NULL) {
        status = PASS_NO_MEMORY;
        goto done;
    }
    int64_t i = 0;
    for (int64_t e = 0; e < n_epochs && status == PASS_OK; e++) {
        int64_t end = ((e + 1) * n + n_epochs - 1) / n_epochs;
        double *cell_occupancy = occupancy + e * n_zones;
        for (; i < end; i++) {
            int64_t z = access_zone(pages, i, zone_map, map_itemsize,
                                    footprint, n_zones);
            if (z < 0) {
                status = PASS_BAD_INDEX;
                break;
            }
            tally[z]++;
            cell_occupancy[z] += access_weight(is_write, i, weights,
                                               n_zones, z);
        }
        for (int64_t z = 0; z < n_zones; z++) {
            counts[e * n_zones + z] = (double)tally[z];
            tally[z] = 0;
        }
    }

done:
    free(weights);
    free(tally);
    return status;
}

int repro_throughput_pass(const int64_t *pages, const uint8_t *is_write,
                          int64_t n, const void *zone_map,
                          int64_t map_itemsize, int64_t footprint,
                          const double *write_factors, int64_t n_zones,
                          int64_t n_epochs, double *counts,
                          double *occupancy)
{
    int status = check_zone_map(zone_map, map_itemsize, footprint, n_zones);
    if (status == PASS_OK)
        status = throughput_bins(pages, is_write, n, zone_map, map_itemsize,
                                 footprint, write_factors, n_zones, n_epochs,
                                 counts, occupancy);
    return status;
}

/* np.maximum: the first argument only when it is larger or NaN, so a
 * NaN propagates and a tie yields the second. */
static inline double np_max(double a, double b)
{
    return a > b || a != a ? a : b;
}

/* numpy's pairwise summation (pairwise_sum in its loops_utils): one
 * running sum below 8 values, eight interleaved ones up to the
 * 128-value block, and halves cut at a multiple of 8 above it. */
#define PW_BLOCKSIZE 128

static double pairwise_sum(const double *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j * stride];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[(i + j) * stride];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride)
         + pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* ndarray.sum() of a contiguous run: the identity 0.0 plus the
 * pairwise sum. */
static inline double np_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n, 1);
}

/*
 * The throughput engine's bound tail over its (epoch, zone) counts and
 * occupancy, in numpy's operations and order (the engine's numpy tail
 * in repro.gpu.service is the oracle):
 *
 *   t_bandwidth = (occupancy * line / bandwidths).max(axis=1) * 1e9
 *   accesses    = counts.sum(axis=1)
 *   avg_latency = (counts / max(accesses, 1) * latencies).sum(axis=1)
 *   t_latency   = accesses * avg_latency / parallelism
 *   epoch_time  = max(max(t_bandwidth, t_latency), t_compute)
 *
 * tables holds bandwidths[Z], latencies[Z], line and parallelism.  out
 * receives the four per-epoch rows t_bandwidth, t_latency, t_compute
 * and epoch_time (4 * E), then bytes per zone, (counts * line) summed
 * over epochs (Z), then the four rows' sums (4).  Row sums over zones
 * and sums over epochs are pairwise, as numpy's are along a contiguous
 * axis; bytes per zone are summed epoch by epoch, as numpy's axis-0 sum
 * is, except for a single zone, where that axis is contiguous too.
 */
int repro_throughput_tail(const double *counts, const double *occupancy,
                          int64_t n_epochs, int64_t n_zones,
                          const double *tables, double t_compute,
                          double *out)
{
    const double *bandwidths = tables, *latencies = tables + n_zones;
    const double line = tables[2 * n_zones];
    const double parallelism = tables[2 * n_zones + 1];
    double *t_bandwidth = out, *t_latency = out + n_epochs;
    double *t_comp = out + 2 * n_epochs, *epoch_time = out + 3 * n_epochs;
    double *bytes = out + 4 * n_epochs, *totals = bytes + n_zones;
    int64_t scratch = n_zones > n_epochs ? n_zones : n_epochs;
    double *row = malloc((size_t)scratch * sizeof(double) + 1);
    if (row == NULL)
        return PASS_NO_MEMORY;
    for (int64_t z = 0; z < n_zones; z++)
        bytes[z] = 0.0;
    for (int64_t e = 0; e < n_epochs; e++) {
        const double *c = counts + e * n_zones;
        const double *o = occupancy + e * n_zones;
        double peak = o[0] * line / bandwidths[0];
        for (int64_t z = 1; z < n_zones; z++)
            peak = np_max(peak, o[z] * line / bandwidths[z]);
        t_bandwidth[e] = peak * 1e9;
        double accesses = np_sum(c, n_zones);
        double divisor = np_max(accesses, 1.0);
        for (int64_t z = 0; z < n_zones; z++)
            row[z] = c[z] / divisor * latencies[z];
        t_latency[e] = accesses * np_sum(row, n_zones) / parallelism;
        t_comp[e] = t_compute;
        epoch_time[e] = np_max(np_max(t_bandwidth[e], t_latency[e]),
                               t_compute);
        if (n_zones > 1)
            for (int64_t z = 0; z < n_zones; z++)
                bytes[z] += c[z] * line;
    }
    if (n_zones == 1) {
        for (int64_t e = 0; e < n_epochs; e++)
            row[e] = counts[e] * line;
        bytes[0] = np_sum(row, n_epochs);
    }
    for (int k = 0; k < 4; k++)
        totals[k] = np_sum(out + k * n_epochs, n_epochs);
    free(row);
    return PASS_OK;
}

/*
 * The throughput engine's whole call: the (epoch, zone) bins, then the
 * bound tail.  tables holds write_factors[Z] followed by the tail's
 * tables; out is the tail's (4 * E + Z + 4 doubles).
 */
int repro_throughput_run(const int64_t *pages, const uint8_t *is_write,
                         int64_t n, const void *zone_map,
                         int64_t map_itemsize, int64_t footprint,
                         const double *tables, int64_t n_zones,
                         int64_t n_epochs, double t_compute, double *out)
{
    int status = check_zone_map(zone_map, map_itemsize, footprint, n_zones);
    if (status != PASS_OK)
        return status;
    int64_t cells = n_epochs * n_zones;
    double *bins = calloc((size_t)(2 * cells) + 1, sizeof(double));
    if (bins == NULL)
        status = PASS_NO_MEMORY;
    if (status == PASS_OK)
        status = throughput_bins(pages, is_write, n, zone_map, map_itemsize,
                                 footprint, tables, n_zones, n_epochs, bins,
                                 bins + cells);
    if (status == PASS_OK)
        status = repro_throughput_tail(bins, bins + cells, n_epochs,
                                       n_zones, tables + n_zones,
                                       t_compute, out);
    free(bins);
    return status;
}

/* The event pass's producer state: its inputs and tables, the
 * per-zone channel cursors and per-bank open rows, and the outputs it
 * accumulates. */
struct event_stream {
    const int64_t *pages;
    const uint8_t *is_write;
    const void *zone_map;
    int64_t map_itemsize, footprint, n_zones;
    const int64_t *zone_channels;
    const double *service, *latency, *row_miss, *weights;
    int64_t n_banks, lines_per_page, lines_per_row;
    double step;
    const int64_t *offset;
    int64_t *cursor, *open_row;
    double *busy;
    int64_t *zone_counts;
};

/* Accesses [start, start + count) into the core's buffer. */
static int fill_events(void *ctx, int64_t start, int64_t count,
                       double *ready, double *occupancy, double *latency,
                       int64_t *channel)
{
    /* Fields copied to locals: the loop's stores through double and
     * int64 pointers would otherwise make the compiler reload them. */
    const struct event_stream *ev = ctx;
    const int64_t *pages = ev->pages;
    const void *zone_map = ev->zone_map;
    const uint8_t *is_write = ev->is_write;
    const int64_t map_itemsize = ev->map_itemsize;
    const int64_t footprint = ev->footprint, n_zones = ev->n_zones;
    const int64_t *zone_channels = ev->zone_channels, *offset = ev->offset;
    const double *service = ev->service, *weights = ev->weights;
    const double *zone_latency = ev->latency, *row_miss = ev->row_miss;
    const int64_t n_banks = ev->n_banks;
    const int64_t lines_per_page = ev->lines_per_page;
    const int64_t lines_per_row = ev->lines_per_row;
    const double step = ev->step;
    int64_t *cursor = ev->cursor, *open_row = ev->open_row;
    double *busy = ev->busy;
    int64_t *zone_counts = ev->zone_counts;

    for (int64_t k = 0; k < count; k++) {
        int64_t i = start + k;
        int64_t z = access_zone(pages, i, zone_map, map_itemsize,
                                footprint, n_zones);
        if (z < 0)
            return PASS_BAD_INDEX;
        double occ = service[z];
        occ *= access_weight(is_write, i, weights, n_zones, z);
        int64_t c;
        if (n_banks > 0) {
            /* Lines interleave across the zone's channels; a row is a
             * span of channel-local lines. */
            int64_t per_zone = zone_channels[z];
            int64_t line = pages[i] * lines_per_page + i % lines_per_page;
            int64_t local = line % per_zone;
            int64_t row = (line / per_zone) / lines_per_row;
            int64_t bank = (offset[z] + local) * n_banks + row % n_banks;
            int hit = open_row[bank] == row;
            open_row[bank] = row;
            occ += hit ? 0.0 : row_miss[z];
            c = offset[z] + local;
        } else {
            c = offset[z] + cursor[z];
            if (++cursor[z] == zone_channels[z])
                cursor[z] = 0;
        }
        occupancy[k] = occ;
        latency[k] = zone_latency[z];
        ready[k] = (double)i * step;
        channel[k] = c;
        busy[c] += occ;
        zone_counts[z]++;
    }
    return PASS_OK;
}

/*
 * n_banks == 0 runs the detailed engine's pass, n_banks > 0 the banked
 * one.  tables holds write_factors[Z], service[Z], latency[Z] and, for
 * the banked pass, row_miss[Z]; shape holds n_zones, n_banks,
 * lines_per_page, lines_per_row, window and zone_channels[Z].  out[0]
 * receives the last completion and out[1..] holds the channels' zeros
 * on entry, for their busy time; zone_counts holds the zones' zeros.
 */
int repro_event_pass(const int64_t *pages, const uint8_t *is_write,
                     int64_t n, const void *zone_map, int64_t map_itemsize,
                     int64_t footprint, const double *tables,
                     const int64_t *shape, double step, double *out,
                     int64_t *zone_counts)
{
    const int64_t n_zones = shape[0], n_banks = shape[1];
    const int64_t *zone_channels = shape + 5;
    int64_t n_channels = 0;
    for (int64_t z = 0; z < n_zones; z++)
        n_channels += zone_channels[z];
    int64_t n_open = n_banks > 0 ? n_channels * n_banks : 0;
    out[0] = 0.0;
    int status = check_zone_map(zone_map, map_itemsize, footprint, n_zones);
    if (status != PASS_OK)
        return status;
    int64_t *offset = malloc((size_t)n_zones * sizeof(int64_t) + 1);
    int64_t *cursor = calloc((size_t)n_zones + 1, sizeof(int64_t));
    int64_t *open_row = malloc((size_t)n_open * sizeof(int64_t) + 1);
    double *weights = weight_table(tables, n_zones);
    if (!offset || !cursor || !open_row || !weights) {
        status = PASS_NO_MEMORY;
        goto done;
    }
    int64_t first = 0;
    for (int64_t z = 0; z < n_zones; z++) {
        offset[z] = first;
        first += zone_channels[z];
    }
    for (int64_t b = 0; b < n_open; b++)
        open_row[b] = -1;

    struct event_stream ev = {
        pages, is_write, zone_map, map_itemsize, footprint, n_zones,
        zone_channels,
        tables + n_zones, tables + 2 * n_zones,
        n_banks > 0 ? tables + 3 * n_zones : NULL, weights, n_banks,
        shape[2], shape[3], step, offset, cursor, open_row, out + 1,
        zone_counts};
    double replayed = windowed_replay(fill_events, &ev, n, n_channels,
                                      shape[4], &status);
    if (status == PASS_OK)
        out[0] = replayed;

done:
    free(offset);
    free(cursor);
    free(open_row);
    free(weights);
    return status;
}
