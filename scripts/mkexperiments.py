#!/usr/bin/env python3
# Render EXPERIMENTS.md from scripts/EXPERIMENTS.tmpl.md and results_full.txt
# (the whole output of `xpgraph bench -exp all -scale 1`).
#
#     python3 scripts/mkexperiments.py [output file, default EXPERIMENTS.md]
#
# The template's placeholders, all of them text the harness computed:
#
#     {{fig11}}                     the experiment's output: table, notes, extra rows
#     {{fig11/speedup_min}}         the text of a shape row
#     {{fig11/ in band: shape OK}}  the words, if every shape row whose name starts
#                                   "fig11/" lies inside the paper's band
#     {{fig11/ deviates: ...}}      the words, if one of them lies outside it
#
# Exit status 1, and nothing written, on a placeholder that resolves to nothing,
# a group of rows in a state the template has no words for, and a shape row
# outside its band with no deviation number: an unrecorded deviation.
import os
import re
import sys

root = os.path.join(os.path.dirname(os.path.abspath(__file__)), '..')
results = open(os.path.join(root, 'results_full.txt')).read()
tmpl = open(os.path.join(root, 'scripts', 'EXPERIMENTS.tmpl.md')).read()
out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, 'EXPERIMENTS.md')

blocks = {}
for block in re.split(r'\n(?=== )', re.sub(r'[ \t]+$', '', results, flags=re.M)):
    blocks[re.match(r'== (\S+): ', block).group(1)] = block.rstrip()

# "shape: <name> = <text>  [<ok|below|above>, paper <lo>..<hi>, deviation <n>, ...]"
shape = {}
for name, text, place, deviation in re.findall(
        r'^shape: (\S+) = (.*?)  \[(\w+)(?:, paper [^,\]]+)?(?:, deviation (\d+))?', results, re.M):
    shape[name] = (text, place != 'ok', deviation)

errors = ['%s = %s lies outside the paper\'s band and no deviation records why' % (name, text)
          for name, (text, outside, deviation) in shape.items() if outside and not deviation]
worded = {}  # verdict prefix -> whether a placeholder had words for its state


def fill(m):
    key = m.group(1)
    verdict = re.match(r'(\S+) (in band|deviates): (.*)', key)
    if verdict:
        prefix, state, words = verdict.groups()
        rows = [row for name, row in shape.items() if name.startswith(prefix)]
        if not rows:
            errors.append('{{%s}}: no shape row is named %s...' % (key, prefix))
        applies = any(outside for _, outside, _ in rows) == (state == 'deviates')
        worded[prefix] = worded.get(prefix, False) or applies
        return words if applies else ''
    if key in blocks:
        return blocks[key]
    if key in shape:
        return shape[key][0]
    errors.append('unresolved placeholder {{%s}}' % key)
    return m.group(0)


text = re.sub(r'\{\{([^}]+)\}\}', fill, tmpl)
errors += ['the template has no verdict for %s... in the state its rows are in' % prefix
           for prefix, ok in worded.items() if not ok]
if errors:
    sys.exit('mkexperiments: ' + '\nmkexperiments: '.join(dict.fromkeys(errors)))
open(out, 'w').write(text)
