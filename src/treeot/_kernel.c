/* C transcription of the seven kernels in _kernels.py, whose helpers there
 * (the chain's step functions, leaves_first, subtree_sums) are static helpers here.
 *
 * One ABI: treeot_<name> takes the argument list of the reference kernel
 * <name>, in order and by name (C's rng is the bitgen_t of the numpy
 * Generator rng's bit generator): n first, then the inputs, then the outputs
 * the caller allocates. It returns an int status, 0 on success. Each exported
 * function allocates its own scratch and frees it on every return, or
 * returns NO_MEMORY; the static helpers take theirs from the caller.
 *
 * No tree is proven here: the tree passes take the links, order and depths
 * of a RootedTree, proven in numpy alike on every backend, whose order lists
 * the vertices by decreasing depth, then increasing id (leaves first).
 *
 * Every floating-point operation happens in the same order as in the Python
 * kernels, and the library is built with -ffp-contract=off and without
 * fast-math, so no multiply-add is fused and the results are bit-identical.
 * Random numbers come from the caller's bit generator, through its own
 * next_uint32 and next_double, and are drawn exactly as
 * Generator.integers(0, k) and Generator.random() draw, so the chain and the
 * tree walk consume the same stream as the Python kernels and leave the
 * generator at the same position, whatever the bit generator.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h), through which the caller's
 * bit generator draws: its state and the functions that step it. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

enum {
    CHAIN_OK = 0,
    CHAIN_DEGREE_TOO_LARGE = 2,
    WILSON_BAD_VERTEX_COUNT = 3,
    WILSON_NO_NEIGHBOUR = 4,
    PLAN_NO_MATCH = 5,
    FLOW_BAD_COST = 7,
    FLOW_BUDGET = 8,
    FLOW_INFEASIBLE = 9,
    STOP_MAX_ITERS = 13,
    STOP_TARGET = 14,
    STOP_CERTIFIED = 15,
    NO_MEMORY = 16,
};

/* count slots of size bytes each, zeroed if asked; never 0 bytes, so NULL
 * means only that the allocation failed */
static void *scratch(int64_t count, size_t size, int zeroed)
{
    const size_t slots = count > 0 ? (size_t)count : 1;
    return zeroed ? calloc(slots, size) : malloc(slots * size);
}

/* Generator.integers(0, deg) for int64 and 1 <= deg < 2^32: no draw
 * when deg == 1, otherwise Lemire's bounded rejection on 32-bit draws
 * (numpy's buffered_bounded_lemire_uint32 with rng = deg - 1). */
static int64_t bounded_index(bitgen_t *rng, int64_t deg)
{
    if (deg == 1)
        return 0;
    const uint32_t rng_excl = (uint32_t)deg;
    uint64_t m = (uint64_t)rng->next_uint32(rng->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - (rng_excl - 1)) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)rng->next_uint32(rng->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* leaves_first of _kernels.py into queue; pending holds n. */
static void leaves_first(int64_t n, const int64_t *parent, int64_t *pending, int64_t *queue)
{
    memset(pending, 0, (size_t)n * sizeof *pending);
    for (int64_t v = 0; v < n; v++)
        if (parent[v] >= 0)
            pending[parent[v]] += 1;
    int64_t head = 0, tail = 0;
    for (int64_t v = 0; v < n; v++)
        if (pending[v] == 0)
            queue[tail++] = v;
    while (head < tail) {
        const int64_t p = parent[queue[head++]];
        if (p >= 0 && --pending[p] == 0)
            queue[tail++] = p;
    }
}

static double tree_cost(int64_t n, const int64_t *parent, const double *wpar, const double *xi_cum)
{
    double total = 0.0;
    for (int64_t v = 0; v < n; v++)
        if (parent[v] >= 0)
            total += wpar[v] * fabs(xi_cum[v]);
    return total;
}

/* exchange_cycle of _kernels.py into paths, len, t and wt; returns the count. */
static int64_t exchange_cycle(const int64_t *parent, const double *wpar, const double *xi_cum,
                              int64_t a, int64_t b, double w, int64_t *mark, int64_t stamp,
                              int64_t *const paths[2], int64_t len[2], double *t, double *wt)
{
    paths[0][0] = a;
    paths[1][0] = b;
    len[0] = len[1] = 1;
    mark[a] = 2 * stamp;
    mark[b] = 2 * stamp + 1;
    for (int side = 0;; side = 1 - side) {
        const int64_t v = parent[paths[side][len[side] - 1]];
        if (v < 0)
            continue;
        if (mark[v] == 2 * stamp + 1 - side) {
            while (paths[1 - side][--len[1 - side]] != v)
                ;
            break;
        }
        mark[v] = 2 * stamp + side;
        paths[side][len[side]++] = v;
    }
    t[0] = 0.0;
    wt[0] = w;
    for (int64_t i = 0; i < len[1] + len[0]; i++) {
        const int64_t x = i < len[1] ? paths[1][i] : paths[0][i - len[1]];
        t[1 + i] = i < len[1] ? -xi_cum[x] : xi_cum[x];
        wt[1 + i] = wpar[x];
    }
    return 1 + len[0] + len[1];
}

/* breakpoint_costs of _kernels.py into f, by a stable insertion sort into order; returns min f. */
static double breakpoint_costs(int64_t count, const double *t, const double *wt, int64_t *order,
                               double *f)
{
    for (int64_t j = 0; j < count; j++) {
        int64_t i = j;
        for (; i > 0 && t[order[i - 1]] > t[j]; i--)
            order[i] = order[i - 1];
        order[i] = j;
    }
    double value = 0.0, total = 0.0, left = 0.0;
    for (int64_t j = 0; j < count; j++) {
        value += wt[order[j]] * (t[order[j]] - t[order[0]]);
        total += wt[order[j]];
    }
    double fmin = f[order[0]] = value;
    for (int64_t j = 1; j < count; j++) {
        left += wt[order[j - 1]];
        value += (t[order[j]] - t[order[j - 1]]) * (left - (total - left));
        f[order[j]] = value;
        fmin = value < fmin ? value : fmin;
    }
    return fmin;
}

/* heat_bath of _kernels.py, the running weights into cum. Below -746 exp
 * returns +0 only after glibc's slow underflow path; 0.0 is taken there. */
static int64_t heat_bath(int64_t count, const double *f, double fmin, double beta, double s,
                         double u, double *cum)
{
    double running = 0.0;
    for (int64_t k = 0; k < count; k++) {
        const double x = s > 0.0 ? -(beta * (f[k] - fmin) / s) : -INFINITY;
        running += f[k] == fmin ? 1.0 : x >= -746.0 ? exp(x) : 0.0;
        cum[k] = running;
    }
    int64_t k = 0;
    while (cum[k] <= u * running)
        k++;
    return k;
}

/* apply_exchange of _kernels.py on exchange_cycle's paths and lengths. */
static void apply_exchange(int64_t *parent, double *wpar, double *xi_cum, int64_t *const paths[2],
                           const int64_t len[2], int64_t a, int64_t b, double w, int64_t k)
{
    const int side = k <= len[1];
    const int64_t *cut = paths[side], *other = paths[1 - side];
    k -= side ? 1 : 1 + len[1];
    const double theta = xi_cum[cut[k]];
    for (int64_t i = 0; i < len[1 - side]; i++)
        xi_cum[other[i]] += theta;
    for (int64_t i = k + 1; i < len[side]; i++)
        xi_cum[cut[i]] -= theta;
    for (int64_t i = k; i > 0; i--) {
        parent[cut[i]] = cut[i - 1];
        wpar[cut[i]] = wpar[cut[i - 1]];
        xi_cum[cut[i]] = theta - xi_cum[cut[i - 1]];
    }
    parent[cut[0]] = side ? a : b;
    wpar[cut[0]] = w;
    xi_cum[cut[0]] = theta;
}

/* subtree_sums of _kernels.py: out goes from vertex values to subtree sums. */
static void subtree_sums(int64_t n, const int64_t *parent, const int64_t *order, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i], p = parent[v];
        if (p >= 0)
            out[p] += out[v];
    }
}

/* tree_potential of _kernels.py: sums goes from vertex values to subtree
 * sums, and u (zero on entry) receives the potential. */
int treeot_tree_potential(int64_t n, const int64_t *parent, const int64_t *order,
                          const double *wpar, double *sums, double *u)
{
    subtree_sums(n, parent, order, sums);
    for (int64_t i = n - 1; i >= 0; i--) {
        const int64_t v = order[i], p = parent[v];
        if (p < 0)
            continue;
        u[v] = u[p] + (sums[v] >= 0.0 ? wpar[v] : -wpar[v]);
    }
    return CHAIN_OK;
}

/* certify of _kernels.py: 1 when the tree potential of (parent, wpar), summed along the queue of
 * leaves_first, is 1-Lipschitz within cert_rtol on every CSR arc, else 0. work_d holds 2n (the
 * sums, then the potential) and work_i 2n. */
static int certify(int64_t n, const int64_t *parent, const double *wpar, const int64_t *indptr,
                   const int64_t *indices, const double *adj_w, const double *xi_node,
                   double cert_rtol, double *work_d, int64_t *work_i)
{
    double *xi_cum = work_d, *u = work_d + n;
    const int64_t *queue = work_i + n;
    leaves_first(n, parent, work_i, work_i + n);
    memcpy(xi_cum, xi_node, (size_t)n * sizeof *xi_cum);
    memset(u, 0, (size_t)n * sizeof *u);
    treeot_tree_potential(n, parent, queue, wpar, xi_cum, u);
    for (int64_t a = 0; a < n; a++)
        for (int64_t j = indptr[a]; j < indptr[a + 1]; j++)
            if (fabs(u[a] - u[indices[j]]) > adj_w[j] * (1.0 + cert_rtol))
                return 0;
    return 1;
}

/* wilson_tree of _kernels.py. Its scratch, in_tree, holds n bytes. Returns
 * CHAIN_OK, a WILSON_* / CHAIN_DEGREE_TOO_LARGE code or NO_MEMORY. */
int treeot_wilson_tree(int64_t n, const int64_t *indptr, const int64_t *indices,
                       const double *adj_w, bitgen_t *rng, int64_t *parent, double *wpar,
                       int64_t *out_root)
{
    if (n < 1 || n > (int64_t)UINT32_MAX)
        return WILSON_BAD_VERTEX_COUNT;
    uint8_t *in_tree = scratch(n, 1, 1);
    if (!in_tree)
        return NO_MEMORY;
    int status = CHAIN_OK;
    const int64_t root = bounded_index(rng, n);
    in_tree[root] = 1;
    parent[root] = -1;
    wpar[root] = 0.0;
    for (int64_t start = 0; start < n && status == CHAIN_OK; start++) {
        for (int64_t v = start; !in_tree[v]; v = parent[v]) {
            const int64_t lo = indptr[v];
            const int64_t deg = indptr[v + 1] - lo;
            if (deg < 1 || deg > (int64_t)UINT32_MAX) {
                status = deg < 1 ? WILSON_NO_NEIGHBOUR : CHAIN_DEGREE_TOO_LARGE;
                break;
            }
            const int64_t k = bounded_index(rng, deg);
            parent[v] = indices[lo + k];
            wpar[v] = adj_w[lo + k];
        }
        for (int64_t v = start; status == CHAIN_OK && !in_tree[v]; v = parent[v])
            in_tree[v] = 1;
    }
    *out_root = root;
    free(in_tree);
    return status;
}

/* anneal_chain of _kernels.py. Scratch: work_i and work_d hold 2n for certify (work_i also for
 * leaves_first), then mark (zeroed), the paths, order and arc tails, and t, wt, f, cum and
 * xi_cum. Results: trace, 5 doubles a row, out_d = {max_drift}, out_i = {records, stop, root,
 * on_best}, stop a STOP_* code, on_best 1 where no exchange followed the last best snapshot.
 * Returns CHAIN_OK, a status of treeot_wilson_tree (root -1), CHAIN_DEGREE_TOO_LARGE (2^32 arcs
 * or more) or NO_MEMORY.
 * The record and recompute schedules are counters, not remainders of it:
 * to_record (to_recompute) reaches 0 exactly when it is a multiple of
 * record_every (recompute_every, never when that is not positive). */
int treeot_anneal_chain(
    int64_t n, int64_t root, int64_t *parent, double *wpar, const int64_t *indptr,
    const int64_t *indices, const double *adj_w, const double *xi_node,
    int64_t max_iters, double beta0, double eta, int64_t record_every, int64_t recompute_every,
    double stop_at, double cert_rtol, bitgen_t *rng, int64_t *best_parent, double *best_wpar,
    double *trace, double *out_d, int64_t *out_i)
{
    const int64_t arcs = indptr[n];
    int64_t *work_i = scratch(6 * n + 1 + arcs, sizeof *work_i, 1);
    double *work_d = scratch(7 * n + 4, sizeof *work_d, 0);
    int status = NO_MEMORY;
    if (!work_i || !work_d)
        goto done;
    out_i[2] = root;
    status = root < 0 ? treeot_wilson_tree(n, indptr, indices, adj_w, rng, parent, wpar, &out_i[2])
                      : CHAIN_OK;
    if (status != CHAIN_OK)
        goto done;
    status = arcs > (int64_t)UINT32_MAX ? CHAIN_DEGREE_TOO_LARGE : CHAIN_OK;
    int64_t *mark = work_i + 2 * n, *const paths[2] = {mark + n, mark + 2 * n};
    int64_t *order = mark + 3 * n, *tails = order + n + 1;
    double *t = work_d + 2 * n, *wt = t + n + 1, *f = wt + n + 1, *cum = f + n + 1;
    double *xi_cum = cum + n + 1;
    for (int64_t a = 0; a < n; a++)
        for (int64_t j = indptr[a]; j < indptr[a + 1]; j++)
            tails[j] = a;
    leaves_first(n, parent, work_i, work_i + n);
    memcpy(xi_cum, xi_node, (size_t)n * sizeof *xi_cum);
    subtree_sums(n, parent, work_i + n, xi_cum);
    const size_t parent_bytes = (size_t)n * sizeof *parent;
    const size_t wpar_bytes = (size_t)n * sizeof *wpar;
    double current = tree_cost(n, parent, wpar, xi_cum);
    double best = current;
    memcpy(best_parent, parent, parent_bytes);
    memcpy(best_wpar, wpar, wpar_bytes);

    int64_t gaps = 0, moved = 0, last_row = 0, on_best = 1; /* as in _kernels.py */
    double beta = beta0, max_drift = 0.0, gap_sum = 0.0;
    const double start_row[5] = {0.0, current, best, beta, 0.0};
    memcpy(trace, start_row, sizeof start_row);
    int64_t records = 1;

    int64_t to_record = record_every, to_recompute = recompute_every;
    int stop = STOP_MAX_ITERS;
    if (best <= stop_at)
        stop = STOP_TARGET;
    else if (certify(n, best_parent, best_wpar, indptr, indices, adj_w, xi_node, cert_rtol,
                     work_d, work_i))
        stop = STOP_CERTIFIED;
    if (stop == STOP_MAX_ITERS && status == CHAIN_OK) {
        double checked = best;
        for (int64_t it = 1; it <= max_iters; it++) {
            const int64_t j = bounded_index(rng, arcs), a = tails[j], b = indices[j];
            if (parent[a] != b && parent[b] != a) {
                int64_t len[2];
                const int64_t count = exchange_cycle(parent, wpar, xi_cum, a, b, adj_w[j], mark,
                                                     it, paths, len, t, wt);
                const double fmin = breakpoint_costs(count, t, wt, order, f);
                gap_sum += f[0] - fmin;
                gaps++;
                const int64_t k = heat_bath(count, f, fmin, beta, gap_sum / (double)gaps,
                                            rng->next_double(rng->state), cum);
                if (k > 0) {
                    apply_exchange(parent, wpar, xi_cum, paths, len, a, b, adj_w[j], k);
                    current += f[k] - f[0];
                    moved++;
                    on_best = 0;
                }
            }
            beta = beta * (1.0 + eta);

            if (--to_recompute == 0) {
                to_recompute = recompute_every;
                leaves_first(n, parent, work_i, work_i + n);
                memcpy(xi_cum, xi_node, (size_t)n * sizeof *xi_cum);
                subtree_sums(n, parent, work_i + n, xi_cum);
                const double fresh_cost = tree_cost(n, parent, wpar, xi_cum);
                const double drift = fabs(fresh_cost - current);
                if (drift > max_drift)
                    max_drift = drift;
                current = fresh_cost;
            }
            if (current < best) {
                best = current;
                memcpy(best_parent, parent, parent_bytes);
                memcpy(best_wpar, wpar, wpar_bytes);
                on_best = 1;
            }

            const int on_target = best <= stop_at;
            const int due = --to_record == 0;
            if (due)
                to_record = record_every;
            if (due || it == max_iters || on_target) {
                const double row[5] = {(double)it, current, best, beta,
                                       (double)moved / (double)(it - last_row)};
                memcpy(trace + 5 * records++, row, sizeof row);
                moved = 0;
                last_row = it;
                if (on_target) {
                    stop = STOP_TARGET;
                    break;
                }
                if (best < checked) {
                    checked = best;
                    if (certify(n, best_parent, best_wpar, indptr, indices, adj_w, xi_node,
                                cert_rtol, work_d, work_i)) {
                        stop = STOP_CERTIFIED;
                        break;
                    }
                }
            }
        }
    }

    out_d[0] = max_drift;
    out_i[0] = records;
    out_i[1] = stop;
    out_i[3] = on_best;
done:
    free(work_i);
    free(work_d);
    return status;
}

/* (da, va) before (db, vb): distance first, then vertex id. */
static int key_before(double da, int64_t va, double db, int64_t vb)
{
    return da < db || (da == db && va < vb);
}

/* Push (d, v) onto the binary min-heap of keys hd/hv[0..size). */
static int64_t key_push(double *hd, int64_t *hv, int64_t size, double d, int64_t v)
{
    int64_t i = size;
    while (i > 0) {
        const int64_t up = (i - 1) / 2;
        if (!key_before(d, v, hd[up], hv[up]))
            break;
        hd[i] = hd[up];
        hv[i] = hv[up];
        i = up;
    }
    hd[i] = d;
    hv[i] = v;
    return size + 1;
}

/* Drop the smallest key of the binary min-heap hd/hv[0..size). */
static int64_t key_pop(double *hd, int64_t *hv, int64_t size)
{
    size--;
    const double d = hd[size];
    const int64_t v = hv[size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size)
            break;
        if (c + 1 < size && key_before(hd[c + 1], hv[c + 1], hd[c], hv[c]))
            c++;
        if (!key_before(hd[c], hv[c], d, v))
            break;
        hd[i] = hd[c];
        hv[i] = hv[c];
        i = c;
    }
    if (size > 0) {
        hd[i] = d;
        hv[i] = v;
    }
    return size;
}

/* dp_plan of _kernels.py, on a proven tree, whose order it walks. xi is
 * changed in place; out_x, out_y and out_m hold 2n slots, and out_k receives
 * {count, u}. Its scratch, work, holds 10n + 1 slots: the token links, the
 * heads and tails of every vertex's supplies (at 2v) and demands (at 2v + 1),
 * the matches' rows, their lists by column (link, first), the sort's row
 * counts (at) and the matches' masses. Returns 0, PLAN_NO_MATCH or NO_MEMORY. */
int treeot_dp_plan(int64_t n, const int64_t *parent, const int64_t *order, const double *mu,
                   const double *nu, double *xi, double zero_tol, int64_t *out_x, int64_t *out_y,
                   double *out_m, int64_t *out_k)
{
    int64_t count = 0;
    out_k[0] = 0;
    out_k[1] = -1;
    int64_t *work = scratch(10 * n + 1, sizeof *work, 0);
    if (!work)
        return NO_MEMORY;
    int64_t *next = work, *head = work + n, *tail = work + 3 * n, *rows = work + 5 * n;
    int64_t *link = rows + n, *first = link + n, *at = first + n;
    double *mass = (double *)(at + n + 1);
    at[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        if (fabs(xi[v]) <= zero_tol)
            xi[v] = 0.0;
        next[v] = head[2 * v] = head[2 * v + 1] = first[v] = -1;
        at[v + 1] = (mu[v] <= nu[v] ? mu[v] : nu[v]) > 0.0;
    }
    int status = CHAIN_OK;
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i];
        if (xi[v] != 0.0) {
            const int64_t side = 2 * v + (xi[v] < 0.0);
            if (head[side] < 0)
                head[side] = v;
            else
                next[tail[side]] = v;
            tail[side] = v;
        }
        int64_t a = head[2 * v], b = head[2 * v + 1];
        while (a >= 0 && b >= 0) {
            const double m = xi[a] <= -xi[b] ? xi[a] : -xi[b];
            rows[count] = a;
            link[count] = first[b];
            first[b] = count;
            mass[count++] = m;
            at[a + 1]++;
            xi[a] -= m;
            xi[b] += m;
            if (xi[a] <= zero_tol) {
                xi[a] = 0.0;
                a = next[a];
            }
            if (-xi[b] <= zero_tol) {
                xi[b] = 0.0;
                b = next[b];
            }
        }
        head[2 * v] = a;
        head[2 * v + 1] = b;
        if (a < 0 && b < 0)
            continue;
        const int64_t p = parent[v];
        if (p < 0) {
            out_k[1] = v;
            status = PLAN_NO_MATCH;
            break;
        }
        const int64_t side = 2 * v + (a < 0), to = 2 * p + (a < 0);
        if (head[to] < 0)
            head[to] = head[side];
        else
            next[tail[to]] = head[side];
        tail[to] = tail[side];
    }
    /* the matches and the diagonal min(mu, nu) > 0 in (row, col) order: a
     * counting sort on rows, fed column by column */
    for (int64_t r = 0; r < n; r++)
        at[r + 1] += at[r];
    out_k[0] = at[n];
    for (int64_t c = 0; c < n; c++) {
        const double d = mu[c] <= nu[c] ? mu[c] : nu[c];
        if (d > 0.0) {
            const int64_t s = at[c]++;
            out_x[s] = out_y[s] = c;
            out_m[s] = d;
        }
        for (int64_t j = first[c]; j >= 0; j = link[j]) {
            const int64_t s = at[rows[j]]++;
            out_x[s] = rows[j];
            out_y[s] = c;
            out_m[s] = mass[j];
        }
    }
    free(work);
    return status;
}

/* network_simplex of _kernels.py. Nodes 0..n-1 have supply (negative for
 * demand), arc k runs tail[k] -> head[k] at cost[k]; the artificial root is
 * node n and arc m + v is v's artificial arc. Writes the m arc flows into
 * flow, the n potentials into pi and the pivot count into out_pivots. Its
 * scratch: work_d holds m + 2 n + 1 slots (all flows, then the potentials'
 * real parts), work_i 7 (n + 1) (parent, pred, up, M counts, depth, seen,
 * stack). Returns CHAIN_OK, FLOW_BAD_COST, FLOW_BUDGET, FLOW_INFEASIBLE or
 * NO_MEMORY. */
int treeot_network_simplex(int64_t n, int64_t m, const double *supply, const int64_t *tail,
                           const int64_t *head, const double *cost, double price_rtol,
                           double *flow, double *pi, int64_t *out_pivots)
{
    double cmax = 0.0;
    *out_pivots = 0;
    for (int64_t k = 0; k < m; k++) {
        if (!(cost[k] >= 0.0 && cost[k] < INFINITY))
            return FLOW_BAD_COST;
        if (cost[k] > cmax)
            cmax = cost[k];
    }
    double *work_d = scratch(m + 2 * n + 1, sizeof *work_d, 0);
    int64_t *work_i = scratch(7 * (n + 1), sizeof *work_i, 0), pivots = 0;
    int status = NO_MEMORY;
    if (!work_d || !work_i)
        goto done;
    const double tol = price_rtol * cmax;
    const int64_t root = n;
    double *fl = work_d, *pr = work_d + m + n;
    int64_t *parent = work_i, *pred = parent + (n + 1), *up = pred + (n + 1);
    int64_t *pm = up + (n + 1), *depth = pm + (n + 1), *seen = depth + (n + 1);
    int64_t *stack = seen + (n + 1);
    memset(fl, 0, (size_t)m * sizeof *fl);
    for (int64_t v = 0; v < n; v++) {
        parent[v] = root;
        pred[v] = m + v;
        up[v] = supply[v] >= 0.0;
        fl[m + v] = up[v] ? supply[v] : -supply[v];
    }
    parent[root] = -1;
    pred[root] = -1;
    up[root] = 0;
    for (int64_t v = 0; v <= n; v++) {
        pr[v] = 0.0;
        pm[v] = 0;
        depth[v] = 0;
        seen[v] = 0;
    }
    int64_t block = 1; /* ceil(sqrt(m)), at least 1 */
    while (block * block < m)
        block++;
    const int64_t blocks = (m + block - 1) / block;
    int64_t next_block = 0;
    const int64_t guard = 10 * (n + m) + 100;
    for (;;) {
        /* potentials and depths, each node after its parent */
        seen[root] = pivots + 1;
        for (int64_t v = 0; v < n; v++) {
            int64_t k = 0;
            for (int64_t u = v; seen[u] != pivots + 1; u = parent[u])
                stack[k++] = u;
            while (k) {
                const int64_t u = stack[--k], p = parent[u], e = pred[u];
                if (e >= m) {
                    pr[u] = pr[p];
                    pm[u] = up[u] ? pm[p] + 1 : pm[p] - 1;
                } else if (up[u]) {
                    pr[u] = cost[e] + pr[p];
                    pm[u] = pm[p];
                } else {
                    pr[u] = pr[p] - cost[e];
                    pm[u] = pm[p];
                }
                depth[u] = depth[p] + 1;
                seen[u] = pivots + 1;
            }
        }

        int64_t enter = -1, best_m = 0;
        double best_r = -tol;
        for (int64_t step = 0; step < blocks; step++) {
            const int64_t b = (next_block + step) % blocks;
            const int64_t end = (b + 1) * block < m ? (b + 1) * block : m;
            for (int64_t e = b * block; e < end; e++) {
                const int64_t t = tail[e], h = head[e];
                const int64_t rm = pm[h] - pm[t];
                if (rm > best_m)
                    continue;
                const double rr = cost[e] - pr[t] + pr[h];
                if (rm < best_m || rr < best_r) {
                    best_m = rm;
                    best_r = rr;
                    enter = e;
                }
            }
            if (enter >= 0) {
                next_block = (b + 1) % blocks;
                break;
            }
        }
        if (enter < 0)
            break;
        if (pivots == guard) {
            status = FLOW_BUDGET;
            goto done;
        }
        pivots++;

        const int64_t p = tail[enter], q = head[enter];
        int64_t a = p, b = q;
        while (a != b) {
            if (depth[a] >= depth[b])
                a = parent[a];
            if (depth[b] > depth[a])
                b = parent[b];
        }
        const int64_t join = a;
        /* Cunningham's leaving arc: on q's side the blocking arc nearest the
         * join, else on p's the one nearest p */
        double delta = INFINITY;
        int64_t out = -1, cut = p, graft = q;
        for (int64_t u = p; u != join; u = parent[u])
            if (up[u] && fl[pred[u]] < delta) {
                delta = fl[pred[u]];
                out = u;
            }
        for (int64_t u = q; u != join; u = parent[u])
            if (!up[u] && fl[pred[u]] <= delta) {
                delta = fl[pred[u]];
                out = u;
                cut = q;
                graft = p;
            }
        if (delta > 0.0) {
            fl[enter] += delta;
            for (int64_t u = p; u != join; u = parent[u]) {
                if (up[u])
                    fl[pred[u]] -= delta;
                else
                    fl[pred[u]] += delta;
            }
            for (int64_t u = q; u != join; u = parent[u]) {
                if (up[u])
                    fl[pred[u]] += delta;
                else
                    fl[pred[u]] -= delta;
            }
        }
        /* hang the cut side from the entering arc */
        int64_t v = cut, new_parent = graft, new_arc = enter;
        for (;;) {
            const int64_t old_parent = parent[v], old_arc = pred[v];
            parent[v] = new_parent;
            pred[v] = new_arc;
            up[v] = tail[new_arc] == v;
            if (v == out)
                break;
            new_parent = v;
            new_arc = old_arc;
            v = old_parent;
        }
    }

    status = CHAIN_OK;
    for (int64_t v = 0; v < n; v++)
        if (pm[v] != pm[0])
            status = FLOW_INFEASIBLE;
    if (status == CHAIN_OK) {
        memcpy(flow, fl, (size_t)m * sizeof *flow);
        memcpy(pi, pr, (size_t)n * sizeof *pi);
    }
done:
    *out_pivots = pivots;
    free(work_d);
    free(work_i);
    return status;
}

/* tree_pairs of _kernels.py, on a proven tree. With mass NULL, out[i] is
 * the tree distance of pair i; otherwise out holds 2 n zeros and gains
 * mass[i] at out[a] for every edge pair i climbs from child a and at
 * out[n + b] for every edge it descends to child b. */
int treeot_tree_pairs(int64_t n, const int64_t *parent, const int64_t *depth, const double *wpar,
                      int64_t k, const int64_t *xs, const int64_t *ys, const double *mass,
                      double *out)
{
    for (int64_t i = 0; i < k; i++) {
        int64_t a = xs[i], b = ys[i];
        double total = 0.0;
        while (a != b) {
            const int move_a = depth[a] >= depth[b], move_b = depth[b] >= depth[a];
            if (mass == NULL) {
                total += (move_a ? wpar[a] : 0.0) + (move_b ? wpar[b] : 0.0);
            } else {
                if (move_a)
                    out[a] += mass[i];
                if (move_b)
                    out[n + b] += mass[i];
            }
            if (move_a)
                a = parent[a];
            if (move_b)
                b = parent[b];
        }
        if (mass == NULL)
            out[i] = total;
    }
    return CHAIN_OK;
}

/* pair_distances of _kernels.py: out[by_source[q]] is the shortest-path
 * distance of that pair. Its scratch: dist holds n slots, stamps 3 n zeros
 * (seen, settled, wanted) and heap_d/heap_v m + 1 keys: a run pushes its
 * source and then at most once per arc, since each vertex is settled once.
 * The graph is a proven WeightedGraph: connected, so a run settles its
 * targets before the heap empties, and with positive finite weights.
 * Returns CHAIN_OK or NO_MEMORY. */
int treeot_pair_distances(int64_t n, const int64_t *indptr, const int64_t *indices,
                          const double *adj_w, int64_t k, const int64_t *xs, const int64_t *ys,
                          const int64_t *by_source, double *out)
{
    double *dist = scratch(n, sizeof *dist, 0), *heap_d = scratch(indptr[n] + 1, sizeof *heap_d, 0);
    int64_t *stamps = scratch(3 * n, sizeof *stamps, 1);
    int64_t *heap_v = scratch(indptr[n] + 1, sizeof *heap_v, 0);
    int status = NO_MEMORY;
    if (!dist || !heap_d || !stamps || !heap_v)
        goto done;
    status = CHAIN_OK;
    int64_t *seen = stamps, *settled = stamps + n, *wanted = stamps + 2 * n;
    int64_t run = 0;
    for (int64_t i = 0, j; i < k; i = j) {
        run++;
        const int64_t s = xs[by_source[i]];
        int64_t left = 0;
        for (j = i; j < k && xs[by_source[j]] == s; j++) {
            const int64_t t = ys[by_source[j]];
            if (wanted[t] != run) {
                wanted[t] = run;
                left++;
            }
        }
        dist[s] = 0.0;
        seen[s] = run;
        int64_t size = key_push(heap_d, heap_v, 0, 0.0, s);
        while (left > 0) {
            const double d = heap_d[0];
            const int64_t v = heap_v[0];
            size = key_pop(heap_d, heap_v, size);
            if (settled[v] == run)
                continue;
            settled[v] = run;
            if (wanted[v] == run && --left == 0)
                break;
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                const int64_t u = indices[e];
                const double nd = d + adj_w[e];
                if (seen[u] != run || nd < dist[u]) {
                    seen[u] = run;
                    dist[u] = nd;
                    size = key_push(heap_d, heap_v, size, nd, u);
                }
            }
        }
        for (int64_t q = i; q < j; q++)
            out[by_source[q]] = dist[ys[by_source[q]]];
    }
done:
    free(dist);
    free(heap_d);
    free(stamps);
    free(heap_v);
    return status;
}
