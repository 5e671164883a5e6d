"""Collisions between context documents: detection and last-wins behavior.

Two documents writing the same target is sometimes a mistake and sometimes
the point (a site overriding a default). Either way the engine applies the
document loaded last and records the shadowing, so the outcome is
deterministic and auditable. Strict mode turns any collision into an error.

Run:  python demos/04_collisions_and_shadowing.py
"""

import ctxflow as cf

DEFAULTS = """\
contextBlock Application=*
  define OutputPath /data/default
  define Compression on
end
"""

SITE = """\
contextBlock Application=*
  define OutputPath /fnal/scratch
end
"""


def build(order):
    state = cf.Linker()
    for text, doc_id in order:
        state.load_context(cf.parse_context(text, doc_id))
    state.attach_element("Simulator")
    return state


forward = build([(DEFAULTS, "Defaults.ctx"), (SITE, "SiteFNAL.ctx")])
backward = build([(SITE, "SiteFNAL.ctx"), (DEFAULTS, "Defaults.ctx")])

for label, state in [("defaults then site", forward), ("site then defaults", backward)]:
    element = state.elements["Simulator"]
    print(f"{label}: OutputPath={element.attributes['OutputPath']}")
    for record in state.detect_collisions():
        print(
            f"  shadowed {record.element}.{record.attribute}: "
            f"{record.old_doc} ({record.old_value}) -> {record.new_doc} ({record.new_value})"
        )

# Shadowing also shows up in provenance, next to reductions.
print()
print("".join(cf.emit_provenance(forward)))

# Disjoint documents commute: load order does not matter when nothing collides.
a = "contextBlock Application=*\n define GenSeed 42\nend\n"
b = "contextBlock Application=*\n define SimSteps 1000\nend\n"
one = build([(a, "gen.ctx"), (b, "sim.ctx")])
two = build([(b, "sim.ctx"), (a, "gen.ctx")])
same = one.elements["Simulator"].attributes == two.elements["Simulator"].attributes
print("disjoint documents commute:", same, "| collisions:", one.detect_collisions())
