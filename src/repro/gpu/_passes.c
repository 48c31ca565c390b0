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
 * Every double comes from the same operations in the same order as the
 * numpy path.  The Python caller validates the zone map and the
 * per-zone tables; page and zone indices are checked here too, so an
 * array changed after validation cannot read past a table.
 */

#include <stdint.h>
#include <stdlib.h>

#define PASS_OK 0
#define PASS_NO_MEMORY -1
#define PASS_BAD_INDEX -2

/* The windowed core (_windowed.c), fed by a producer; its statuses
 * share PASS_NO_MEMORY and PASS_BAD_INDEX's values. */
typedef int (*windowed_fill)(void *ctx, int64_t start, int64_t count,
                             double *ready, double *occupancy,
                             double *latency, int64_t *channel);
double windowed_replay(windowed_fill fill, void *ctx, int64_t n,
                       int64_t n_channels, int64_t window, int *status);

/* Zone of access i, or -1 when its page lies outside the map or the
 * map names no zone of the topology. */
static inline int64_t access_zone(const int64_t *pages, int64_t i,
                                  const int64_t *zone_map,
                                  int64_t footprint, int64_t n_zones)
{
    int64_t page = pages[i];
    if ((uint64_t)page >= (uint64_t)footprint)
        return -1;
    int64_t z = zone_map[page];
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

/*
 * counts and occupancy hold n_epochs * n_zones zeros on entry.  Counts
 * are summed as integers (exact, like np.bincount's) and stored as
 * doubles at each epoch's end.
 */
int repro_throughput_pass(const int64_t *pages, const uint8_t *is_write,
                          int64_t n, const int64_t *zone_map,
                          int64_t footprint, const double *write_factors,
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
            int64_t z = access_zone(pages, i, zone_map, footprint, n_zones);
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

/* The event pass's producer state: its inputs and tables, the
 * per-zone channel cursors and per-bank open rows, and the outputs it
 * accumulates. */
struct event_stream {
    const int64_t *pages;
    const uint8_t *is_write;
    const int64_t *zone_map;
    int64_t footprint, n_zones;
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
    const int64_t *pages = ev->pages, *zone_map = ev->zone_map;
    const uint8_t *is_write = ev->is_write;
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
        int64_t z = access_zone(pages, i, zone_map, footprint, n_zones);
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
 * one (row_miss then holds each zone's row-miss overhead).  busy holds
 * the channels' zeros and zone_counts the zones' zeros on entry.
 */
int repro_event_pass(const int64_t *pages, const uint8_t *is_write,
                     int64_t n, const int64_t *zone_map, int64_t footprint,
                     const double *write_factors, int64_t n_zones,
                     const int64_t *zone_channels, const double *service,
                     const double *latency, const double *row_miss,
                     int64_t n_banks, int64_t lines_per_page,
                     int64_t lines_per_row, double step, int64_t window,
                     double *last, double *busy, int64_t *zone_counts)
{
    int status = PASS_OK;
    int64_t n_channels = 0;
    for (int64_t z = 0; z < n_zones; z++)
        n_channels += zone_channels[z];
    int64_t n_open = n_banks > 0 ? n_channels * n_banks : 0;
    int64_t *offset = malloc((size_t)n_zones * sizeof(int64_t) + 1);
    int64_t *cursor = calloc((size_t)n_zones + 1, sizeof(int64_t));
    int64_t *open_row = malloc((size_t)n_open * sizeof(int64_t) + 1);
    double *weights = weight_table(write_factors, n_zones);
    *last = 0.0;
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
        pages, is_write, zone_map, footprint, n_zones, zone_channels,
        service, latency, row_miss, weights, n_banks, lines_per_page,
        lines_per_row, step, offset, cursor, open_row, busy, zone_counts};
    double replayed = windowed_replay(fill_events, &ev, n, n_channels,
                                      window, &status);
    if (status == PASS_OK)
        *last = replayed;

done:
    free(offset);
    free(cursor);
    free(open_row);
    free(weights);
    return status;
}
