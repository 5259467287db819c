"""Germplasm screening and seed-price queries against the knowledge base.

Screening is a conjunction of field predicates over quality, resistance, and
agronomic traits; price queries match an observation point exactly and snap
to the nearest record within a month. An empty result is an honest "no
data" answer, never a fabricated one.
"""

import datetime

from breedkit import bench, kb

varieties = [
    kb.GermplasmRecord(
        variety_name="Alpha", origin="China",
        quality={"crude_protein": 15.2, "lysine": 0.42},
        resistance={"stripe_rust": "R", "drought": "R"},
        agronomic={"plant_height": 75.0, "maturity": 195.0},
    ),
    kb.GermplasmRecord(
        variety_name="Bravo", origin="Japan",
        quality={"crude_protein": 13.4},
        resistance={"stripe_rust": "MR", "drought": "S"},
        agronomic={"plant_height": 88.0, "maturity": 206.0},
    ),
    kb.GermplasmRecord(
        variety_name="Charlie", origin="Italy",
        quality={"crude_protein": 14.6},
        resistance={"stripe_rust": "S", "drought": "MR"},
        agronomic={"plant_height": 79.0, "maturity": 190.0},
    ),
]

# Screen for short, early, protein-rich material (mechanization-friendly).
criteria = [
    kb.parse_criterion("plant_height<=80"),
    kb.parse_criterion("maturity<=200"),
    kb.parse_criterion("crude_protein>=14"),
]
hits = kb.screen_germplasm(varieties, criteria)
print("screening hits:", [r.variety_name for r in hits])

# The five benchmark trait flags under the documented default thresholds.
for record in varieties:
    print(f"  {record.variety_name:8s} flags {kb.trait_flags(record)}")

prices = [
    kb.PriceRecord(observation_point="Miyun District", variety_name="Nongda 3486",
                   price=150.0, specification=25.0, planting_area="Beijing",
                   date=datetime.date(2024, 6, 1)),
    kb.PriceRecord(observation_point="Chengdu", variety_name="Kechengmai 4",
                   price=25.0, specification=2.5, planting_area="Sichuan",
                   date=datetime.date(2024, 7, 24)),
]

# Exact-date hit.
for record in kb.query_price(prices, "Miyun District", "2024-06-01"):
    print(f"price: {record.price:.0f} CNY/bag, variety {record.variety_name}, "
          f"{record.specification:g} kg/bag")

# Fourteen days off still snaps to the monthly observation.
assert kb.query_price(prices, "Miyun District", "2024-06-15")
# An unknown observation point yields the honest empty answer.
assert kb.query_price(prices, "Atlantis", "2024-06-01") == []
print("unknown observation point -> no records (not fabricated)")

# Consistency check used by the price benchmark subtask: +-10 % inclusive.
record = prices[0]
for answer in (150.0, 165.0, 166.0):
    verdict = bench.within_relative_tolerance(answer, record.price)
    print(f"answer {answer:.0f} vs {record.price:.0f}: "
          f"{'consistent' if verdict else 'inconsistent'}")
