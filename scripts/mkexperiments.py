import re

results = open('/root/repo/results_full.txt').read()
tmpl = open('/root/repo/scripts/EXPERIMENTS.tmpl.md').read()

# Parse sections into (header, columns, rows-of-strings).
sections = {}
cur, buf = None, []
for line in results.splitlines():
    m = re.match(r'^== (\S+): .*==$', line)
    if m:
        if cur:
            sections[cur] = buf
        cur, buf = m.group(1), [line]
    elif cur is not None:
        buf.append(line)
if cur:
    sections[cur] = buf


def block(name):
    lines = [l.rstrip() for l in sections[name]]
    while lines and lines[-1].strip() == '':
        lines.pop()
    return '\n'.join(lines)


def rows(name):
    lines = [l for l in sections[name] if l.strip() and not l.startswith('==') and not l.startswith('note:')]
    cols = lines[0].split()
    out = []
    for l in lines[1:]:
        out.append(dict(zip(cols, l.split())))
    return out


def f(x):
    return float(x.rstrip('x'))

# Derived summaries.
r11 = rows('fig11')
sp = [f(r['XP_speedup_vs_GoP']) for r in r11]
nratio = [f(r['GraphOne-N']) / f(r['GraphOne-P']) for r in r11]
bgain = [100 * (1 - f(r['XPGraph-B']) / f(r['XPGraph'])) for r in r11]
subs = {
    'fig11_range': '%.2f-%.2fx' % (min(sp), max(sp)),
    'fig11_n': '%.1f-%.1fx' % (min(nratio), max(nratio)),
    'fig11_b': '%.0f-%.0f%%' % (min(bgain), max(bgain)),
    'sum_fig11': '%.2f-%.2fx; -N %.1f-%.1fx worse; -B up to %.0f%%' % (min(sp), max(sp), min(nratio), max(nratio), max(bgain)),
}

r3 = rows('fig3')
pd = f(r3[1]['total_s']) / f(r3[0]['total_s'])
subs['fig3_pd'] = '%.1fx' % pd
subs['sum_fig3'] = '-P %.1fx slower; archiving dominates; w-amp %.1fx' % (pd, f(r3[1]['w_amp']))

r4 = rows('fig4')
pNorm = next(r for r in r4 if r['system'] == 'GraphOne-P' and r['config'] == 'normal')
pBind = next(r for r in r4 if r['system'] == 'GraphOne-P' and r['config'] == 'bind-1-node')
subs['fig4_bind'] = '%.1fx' % (f(pNorm['ingest_s']) / f(pBind['ingest_s']))
subs['sum_fig4a'] = 'binding speeds -P %.1fx, -D unchanged' % (f(pNorm['ingest_s']) / f(pBind['ingest_s']))
p8 = next(r for r in r4 if r['system'] == 'GraphOne-P' and r['config'] == 'threads=8')
p32 = next(r for r in r4 if r['system'] == 'GraphOne-P' and r['config'] == 'threads=32')
subs['sum_fig4b'] = 'valley at 8; 32 threads %.1fx worse' % (f(p32['ingest_s']) / f(p8['ingest_s']))

r12 = rows('fig12')
ooms = sum(1 for r in r12 if r['GraphOne-D(DO)'] == 'OOM')
do = [100 * (f(r['XPGraph-D(DO)']) / f(r['GraphOne-D(DO)']) - 1) for r in r12 if r['GraphOne-D(DO)'] != 'OOM']
mmwins = sum(1 for r in r12 if f(r['XPGraph-D(MM)']) < f(r['GraphOne-D(MM)']))
subs['fig12_do'] = '%.0f-%.0f%%' % (min(do), max(do))
subs['fig12_mm'] = '%d of %d' % (mmwins, len(r12))
subs['sum_fig12'] = '%d graphs OOM on DRAM-only; there XPGraph-D is %.0f-%.0f%% *slower*; under Memory Mode it wins %d of %d' % (
    ooms, min(do), max(do), mmwins, len(r12))

r13 = rows('fig13')
by = {}
for r in r13:
    by.setdefault(r['dataset'], {})[r['system']] = r
wred = [f(v['GraphOne-P']['write_GB']) / f(v['XPGraph']['write_GB']) for v in by.values()]
rred = [f(v['GraphOne-P']['read_GB']) / f(v['XPGraph']['read_GB']) for v in by.values()]
subs['sum_fig13'] = 'writes %.1f-%.1fx less, reads %.1f-%.1fx less' % (min(wred), max(wred), min(rred), max(rred))

r14 = rows('fig14')
by14 = {}
for r in r14:
    by14.setdefault(r['dataset'], {})[r['system']] = r
ratios = {}
for alg in ['bfs_s', 'pagerank_s', 'cc_s']:
    vals = []
    for v in by14.values():
        a, b = f(v['GraphOne-P'][alg]), f(v['XPGraph'][alg])
        if b > 0:
            vals.append(a / b)
    ratios[alg] = max(vals)
subs['fig14_range'] = 'up to %.2fx (BFS), %.2fx (PageRank), %.2fx (CC)' % (ratios['bfs_s'], ratios['pagerank_s'], ratios['cc_s'])
subs['sum_fig14'] = subs['fig14_range']

r15 = rows('fig15')
small = [f(r['speedup']) for r in r15 if r['dataset'] in ('TT', 'FS', 'UK', 'YW')]
subs['fig15_range'] = '%.1f-%.1fx' % (min(small), max(small))
kron = [f(r['speedup']) for r in r15 if r['dataset'].startswith('K')]
subs['fig15_kron'] = '%.1f-%.1fx' % (min(kron), max(kron))
subs['sum_fig15'] = '%.1f-%.1fx (real graphs), %.1f-%.1fx (Kron)' % (min(small), max(small), min(kron), max(kron))

r16 = rows('fig16')
oom16 = [r['buf_bytes'] for r in r16 if r['ingest_s'] == 'OOM']
subs['sum_fig16'] = 'monotone speed/DRAM trade from 8 B up; OOM at %s B' % (oom16[0] if oom16 else 'none')

r17 = rows('fig17')
fx = next(r for r in r17 if r['config'] == 'fixed-256')
hi = next(r for r in r17 if r['config'] == 'hier-16..256')
frac = f(hi['vbuf_peak_MB']) / f(fx['vbuf_peak_MB'])
subs['fig17_frac'] = '%.0f%%' % (100 * frac)
subs['sum_fig17'] = 'same speed at %.0f%% of fixed-256 DRAM' % (100 * frac)

r18 = rows('fig18')
by18 = {}
for r in r18:
    by18.setdefault(r['dataset'], {})[r['strategy']] = r
gains = []
qg = []
for v in by18.values():
    gains.append(100 * (1 - f(v['NUMA-bind-SG']['ingest_s']) / f(v['no-bind']['ingest_s'])))
    qg.append(100 * (f(v['no-bind']['bfs_s']) / f(v['NUMA-bind-SG']['bfs_s']) - 1))
subs['fig18_sg'] = '%.0f-%.0f%%' % (min(gains), max(gains))
subs['sum_fig18'] = 'SG ingest %.0f-%.0f%% faster; SG BFS up to +%.0f%%; OIG worst for queries' % (min(gains), max(gains), max(qg))

r19 = rows('fig19')
subs['sum_fig19'] = 'gains up to 16 MB, flat past 32 MB'
r20 = rows('fig20')
first, last = f(r20[0]['ingest_s']), f(r20[-1]['ingest_s'])
t16 = f(next(r for r in r20 if r['threads'] == '16')['ingest_s'])
subs['fig20_total'] = '%.1fx' % (first / last)
subs['fig20_to16'] = '%.1fx' % (first / t16)
subs['sum_fig20'] = '%.1fx from 1 to 95 threads, %.1fx of it by 16; level from 64' % (first / last, first / t16)

for name in sections:
    tmpl = tmpl.replace('{{%s}}' % name, block(name))
for k, v in subs.items():
    tmpl = tmpl.replace('{{%s}}' % k, v)

left = re.findall(r'\{\{[^}]+\}\}', tmpl)
open('/root/repo/EXPERIMENTS.md', 'w').write(tmpl)
print('unresolved placeholders:', left)
