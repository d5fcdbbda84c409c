/*
 * Exact-path kernels of the coloring and matching layers, and the
 * array conflict core's CA2 witness-counter upkeep.
 *
 * The Python wrappers in repro.coloring.{dsatur,smallest_last,greedy},
 * repro.matching.hungarian and repro.topology.cores.array validate
 * their arguments and call these functions through ctypes; see
 * repro._native for the build.
 *
 * Every tie rule here is part of the kernels' contract: recoding series
 * are byte-identical only if each kernel picks the same vertex, color
 * and column as the pure-Python oracles in the test suite.  The counter
 * kernels are exact int32 sums, so their result does not depend on the
 * order of the adds.
 *
 * Conventions: a conflict matrix is n*n bytes, row-major, nonzero for a
 * conflict.  Colors are 1-based.  Each function returns 0, or -1 when
 * its scratch memory cannot be allocated.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/*
 * DSATUR: color the uncolored vertex of highest saturation (distinct
 * colors among its neighbors), then highest degree, then lowest index,
 * with the smallest color none of its neighbors holds.
 * used[v * (n + 2) + c] marks that a neighbor of v holds color c.
 */
int repro_dsatur(int64_t n, const uint8_t *conflicts, int64_t *colors)
{
    int64_t stride = n + 2;
    uint8_t *used = calloc((size_t)(n * stride) + 1, 1);
    int64_t *sat = calloc((size_t)n + 1, sizeof *sat);
    int64_t *degree = calloc((size_t)n + 1, sizeof *degree);
    int rc = -1;
    if (!used || !sat || !degree)
        goto out;
    for (int64_t v = 0; v < n; v++) {
        const uint8_t *row = conflicts + v * n;
        int64_t d = 0;
        for (int64_t u = 0; u < n; u++)
            d += row[u] != 0;
        degree[v] = d;
        colors[v] = 0;
    }
    for (int64_t step = 0; step < n; step++) {
        int64_t best = -1;
        for (int64_t v = 0; v < n; v++) {
            if (colors[v])
                continue;
            if (best < 0 || sat[v] > sat[best]
                || (sat[v] == sat[best] && degree[v] > degree[best]))
                best = v;
        }
        const uint8_t *marked = used + best * stride;
        int64_t c = 1;
        while (marked[c])
            c++;
        colors[best] = c;
        const uint8_t *row = conflicts + best * n;
        for (int64_t u = 0; u < n; u++) {
            uint8_t *slot = used + u * stride + c;
            if (row[u] && !*slot) {
                *slot = 1;
                sat[u]++;
            }
        }
    }
    rc = 0;
out:
    free(used);
    free(sat);
    free(degree);
    return rc;
}

/*
 * Smallest-last order: remove a vertex of minimum remaining degree
 * (the first one, by index) n times; order is the reverse removal.
 */
int repro_smallest_last(int64_t n, const uint8_t *conflicts, int64_t *order)
{
    int64_t *degree = calloc((size_t)n + 1, sizeof *degree);
    uint8_t *removed = calloc((size_t)n + 1, 1);
    int rc = -1;
    if (!degree || !removed)
        goto out;
    for (int64_t v = 0; v < n; v++) {
        const uint8_t *row = conflicts + v * n;
        int64_t d = 0;
        for (int64_t u = 0; u < n; u++)
            d += row[u] != 0;
        degree[v] = d;
    }
    for (int64_t step = 0; step < n; step++) {
        int64_t best = -1;
        for (int64_t v = 0; v < n; v++)
            if (!removed[v] && (best < 0 || degree[v] < degree[best]))
                best = v;
        order[n - 1 - step] = best;
        removed[best] = 1;
        const uint8_t *row = conflicts + best * n;
        for (int64_t u = 0; u < n; u++)
            degree[u] -= row[u] != 0;
    }
    rc = 0;
out:
    free(degree);
    free(removed);
    return rc;
}

/*
 * First-fit: color the vertices in order, each with the smallest color
 * no earlier vertex whose row marks it holds.  order must be a
 * permutation of 0..n-1 (the caller checks).
 */
int repro_greedy(int64_t n, const uint8_t *conflicts, const int64_t *order, int64_t *colors)
{
    int64_t stride = n + 2;
    uint8_t *used = calloc((size_t)(n * stride) + 1, 1);
    if (!used)
        return -1;
    for (int64_t k = 0; k < n; k++) {
        int64_t v = order[k];
        const uint8_t *marked = used + v * stride;
        int64_t c = 1;
        while (marked[c])
            c++;
        colors[v] = c;
        const uint8_t *row = conflicts + v * n;
        for (int64_t u = 0; u < n; u++)
            if (row[u])
                used[u * stride + c] = 1;
    }
    free(used);
    return 0;
}

/*
 * Maximum-weight matching of an n*m float64 weight matrix (row-major,
 * finite; entries <= 0 forbid a pair) by shortest augmenting paths.
 *
 * Min-cost form: cost -w for allowed pairs, 0 for forbidden pairs and
 * for n dummy columns.  Column 0 is the inserted row's root, real
 * columns are 1..m, dummies m+1..m+n.  Rows are inserted in order; each
 * insertion is one Dijkstra search that scans columns in index order,
 * settles the first column of minimum distance, and settles the
 * potentials once at the end (a column settled at distance d shifts by
 * D - d, D the final distance).  Every sum is formed in the same order
 * as the reference search, so in float64 without contraction each
 * value, and hence each choice, is the same.
 *
 * match[i] receives the column matched to row i, or -1.  Returns -2 if
 * a search finds no reachable column, which finite weights rule out.
 */
int repro_max_weight(int64_t n, int64_t m, const double *w, int64_t *match)
{
    if (n == 0)
        return 0;
    int64_t cols = m + n + 1;
    double *u = calloc((size_t)n + 1, sizeof *u);
    double *v = calloc((size_t)cols, sizeof *v);
    double *dist = malloc((size_t)cols * sizeof *dist);
    double *settled_at = malloc((size_t)cols * sizeof *settled_at);
    int64_t *p = calloc((size_t)cols, sizeof *p); /* row matched to column j, 0 = none */
    int64_t *way = calloc((size_t)cols, sizeof *way);
    int64_t *settled = malloc((size_t)cols * sizeof *settled);
    uint8_t *done = malloc((size_t)cols);
    int rc = -1;
    if (!u || !v || !dist || !settled_at || !p || !way || !settled || !done)
        goto out;

    for (int64_t i = 1; i <= n; i++) {
        for (int64_t j = 0; j < cols; j++) {
            dist[j] = INFINITY;
            done[j] = 0;
        }
        p[0] = i;
        int64_t j0 = 0, count = 0;
        double d0 = 0.0;
        done[0] = 1;
        settled[count] = 0;
        settled_at[count++] = 0.0;
        for (;;) {
            int64_t i0 = p[j0];
            double shift = d0 - u[i0];
            const double *wrow = w + (i0 - 1) * m;
            int64_t best = -1;
            double best_d = INFINITY;
            for (int64_t j = 1; j < cols; j++) {
                if (done[j])
                    continue;
                double cost = 0.0;
                if (j <= m && wrow[j - 1] > 0)
                    cost = -wrow[j - 1];
                double cur = (cost - v[j]) + shift;
                if (cur < dist[j]) {
                    dist[j] = cur;
                    way[j] = j0;
                }
                if (dist[j] < best_d) {
                    best_d = dist[j];
                    best = j;
                }
            }
            if (best < 0) {
                rc = -2;
                goto out;
            }
            j0 = best;
            d0 = best_d;
            done[j0] = 1;
            settled[count] = j0;
            settled_at[count++] = d0;
            if (p[j0] == 0)
                break;
        }
        for (int64_t k = 0; k < count; k++) {
            int64_t j = settled[k];
            u[p[j]] += d0 - settled_at[k];
            v[j] -= d0 - settled_at[k];
        }
        while (j0 != 0) {
            int64_t j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
        }
    }

    for (int64_t i = 0; i < n; i++)
        match[i] = -1;
    for (int64_t j = 1; j <= m; j++) {
        int64_t i = p[j];
        if (i && w[(i - 1) * m + (j - 1)] > 0)
            match[i - 1] = j - 1;
    }
    rc = 0;
out:
    free(u);
    free(v);
    free(dist);
    free(settled_at);
    free(p);
    free(way);
    free(settled);
    free(done);
    return rc;
}

/*
 * The array core's blocks: adj is cap*cap bytes (0 or 1), c2 is cap*cap
 * int32, both row-major; slots 0..n-1 are live.  adj[u][w] means u
 * covers w, and c2[u][v] = |out(u) & out(v)| for u != v, with a zero
 * diagonal.  Both kernels read the old row or column of slot i from adj,
 * update c2 by the difference to the new one (n bytes, 0 or 1, with
 * entry i zero), then write it into adj.  Rows are walked in order and
 * each row's entries are gathered from it, so the cap-strided column is
 * never read in the inner loops.
 */

/*
 * Replace slot i's out-row.  When i starts (stops) covering w, every
 * in-neighbour u of w gains (loses) one witness with i: the signed sum
 * of adj[u][w] over the changed receivers w is added to c2[i][u] and
 * c2[u][i].  Row i itself is skipped: there is no (i, i) pair.
 */
int repro_c2_row(int64_t n, int64_t cap, uint8_t *adj, int32_t *c2, int64_t i,
                 const uint8_t *new_row)
{
    uint8_t *row_i = adj + i * cap;
    int64_t *idx = malloc(((size_t)n + 1) * sizeof *idx);
    int32_t *sign = malloc(((size_t)n + 1) * sizeof *sign);
    int rc = -1;
    if (!idx || !sign)
        goto out;
    int64_t k = 0;
    for (int64_t w = 0; w < n; w++) {
        if (row_i[w] != new_row[w]) {
            idx[k] = w;
            sign[k++] = new_row[w] ? 1 : -1;
        }
    }
    if (k) {
        int32_t *c2_i = c2 + i * cap;
        for (int64_t u = 0; u < n; u++) {
            if (u == i)
                continue;
            const uint8_t *row = adj + u * cap;
            int32_t cnt = 0;
            for (int64_t a = 0; a < k; a++)
                cnt += row[idx[a]] * sign[a];
            if (cnt) {
                c2_i[u] += cnt;
                c2[u * cap + i] += cnt;
            }
        }
        for (int64_t a = 0; a < k; a++)
            row_i[idx[a]] = (uint8_t)(sign[a] > 0);
    }
    rc = 0;
out:
    free(idx);
    free(sign);
    return rc;
}

/*
 * Replace slot i's in-column.  A pair (u, v) of distinct slots holds a
 * witness at i iff both cover i, so c2[u][v] changes by
 * d(u, v) = new[u] new[v] - old[u] old[v], which is zero unless u or v
 * is a changed in-neighbour.  Two passes write exactly those pairs:
 * each changed row against every slot in old | new (the diagonal term
 * taken back after the row), then each kept row (in old and new)
 * against the changed slots, where d is the changed slot's +1 or -1.
 * Kept pairs are never touched.
 */
int repro_c2_col(int64_t n, int64_t cap, uint8_t *adj, int32_t *c2, int64_t i,
                 const uint8_t *new_col)
{
    int64_t *changed = malloc(((size_t)n + 1) * sizeof *changed);
    int64_t *kept = malloc(((size_t)n + 1) * sizeof *kept);
    int64_t *uni = malloc(((size_t)n + 1) * sizeof *uni);
    int32_t *old_u = malloc(((size_t)n + 1) * sizeof *old_u);
    int32_t *new_u = malloc(((size_t)n + 1) * sizeof *new_u);
    int32_t *sign = malloc(((size_t)n + 1) * sizeof *sign);
    int rc = -1;
    if (!changed || !kept || !uni || !old_u || !new_u || !sign)
        goto out;
    int64_t nc = 0, nk = 0, nu = 0;
    for (int64_t u = 0; u < n; u++) {
        int32_t o = adj[u * cap + i], w = new_col[u];
        if (o | w) {
            uni[nu] = u;
            old_u[nu] = o;
            new_u[nu++] = w;
        }
        if (o != w) {
            changed[nc] = u;
            sign[nc++] = w - o;
        } else if (o) {
            kept[nk++] = u;
        }
    }
    for (int64_t a = 0; a < nc; a++) {
        int64_t u = changed[a];
        int32_t o = adj[u * cap + i], w = new_col[u];
        int32_t *row = c2 + u * cap;
        for (int64_t b = 0; b < nu; b++)
            row[uni[b]] += w * new_u[b] - o * old_u[b];
        row[u] -= w - o;
    }
    for (int64_t a = 0; a < nk; a++) {
        int32_t *row = c2 + kept[a] * cap;
        for (int64_t b = 0; b < nc; b++)
            row[changed[b]] += sign[b];
    }
    for (int64_t a = 0; a < nc; a++)
        adj[changed[a] * cap + i] = (uint8_t)(sign[a] > 0);
    rc = 0;
out:
    free(changed);
    free(kept);
    free(uni);
    free(old_u);
    free(new_u);
    free(sign);
    return rc;
}
