"""Schema-level declarations that ride alongside a graph.

These steer the canonicalizer (event cardinality), the merge engine
(attribute modes), alignment (essential event types) and role inference
(role-concept definitions).  None of them add edges of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Tuple, Union

from .model import NodeId, PrimitiveRelation, RoleConceptDef, PARTICIPANT_RELATIONS


class Cardinality(str, Enum):
    ONE = "ONE"
    MANY = "MANY"


class AttrMode(str, Enum):
    FUNCTIONAL = "FUNCTIONAL"
    MULTI = "MULTI"


@dataclass(frozen=True, slots=True)
class AttrSlot:
    """Rule object slot: the object becomes a value literal of
    ``value_type`` hanging off an attribute instance of ``attr_type``."""

    attr_type: NodeId
    value_type: NodeId


@dataclass(frozen=True, slots=True)
class ParticipantSlot:
    """Rule object slot: the object becomes an entity attached to the event
    through ``role``."""

    role: PrimitiveRelation

    def __post_init__(self):
        if self.role not in PARTICIPANT_RELATIONS:
            raise ValueError(f"object role must be a participant relation, got {self.role.value}")


ObjectSlot = Union[AttrSlot, ParticipantSlot]


@dataclass(frozen=True, slots=True)
class ReificationRule:
    """Maps one flat relation name onto an event pattern."""

    rel_name: str
    event_type: NodeId
    subject_role: PrimitiveRelation
    object_slot: ObjectSlot

    def __post_init__(self):
        if self.subject_role not in PARTICIPANT_RELATIONS:
            raise ValueError(
                f"subject role must be a participant relation, got {self.subject_role.value}"
            )

    def referenced_types(self) -> Tuple[NodeId, ...]:
        slot = self.object_slot
        if isinstance(slot, AttrSlot):
            return (self.event_type, slot.attr_type, slot.value_type)
        return (self.event_type,)


@dataclass(frozen=True)
class SchemaDeclarations:
    """The declaration block of a document or rule file."""

    essential: frozenset = frozenset()
    cardinality: Mapping[NodeId, Cardinality] = field(default_factory=dict)
    attr_modes: Mapping[tuple, AttrMode] = field(default_factory=dict)
    roles: Tuple[RoleConceptDef, ...] = ()

    def card_of(self, event_type: NodeId) -> Cardinality:
        """Event cardinality; undeclared types coalesce (ONE)."""
        return self.cardinality.get(event_type, Cardinality.ONE)

    def mode_of(self, event_type: NodeId, attr_type: NodeId) -> AttrMode:
        """Attribute slot mode; undeclared slots accumulate (MULTI)."""
        return self.attr_modes.get((event_type, attr_type), AttrMode.MULTI)

    def referenced_types(self) -> frozenset:
        types = set(self.essential)
        types.update(self.cardinality)
        for event_type, attr_type in self.attr_modes:
            types.add(event_type)
            types.add(attr_type)
        for role in self.roles:
            types.add(role.base_type)
            types.add(role.occurrent_type)
        return frozenset(types)

    def merged_with(self, other: "SchemaDeclarations") -> "SchemaDeclarations":
        """Union of two declaration blocks; on key clashes this side wins."""
        cardinality = dict(other.cardinality)
        cardinality.update(self.cardinality)
        attr_modes = dict(other.attr_modes)
        attr_modes.update(self.attr_modes)
        seen = {role.role_name for role in self.roles}
        roles = tuple(self.roles) + tuple(r for r in other.roles if r.role_name not in seen)
        return SchemaDeclarations(
            essential=self.essential | other.essential,
            cardinality=cardinality,
            attr_modes=attr_modes,
            roles=roles,
        )
